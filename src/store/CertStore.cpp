//===----------------------------------------------------------------------===//
///
/// \file
/// Store implementation. Commit protocol (put):
///
///   1. append "B <file>" to the journal   (intent)
///   2. write entries/<file>.tmp<N>        (full frame, never in place)
///   3. rename(<file>.tmp<N>, <file>)      (the atomic commit point)
///   4. append "C <file>" to the journal   (completion)
///
/// A crash anywhere leaves either the old entry (steps 1-3 incomplete)
/// or the new one (rename done): the final file is only ever produced
/// by rename, so a torn *entry* cannot exist; a torn *journal* tail or
/// stray temp is discarded by the recovery pass, and any corruption
/// that slips past (bit rot, hostile edits) is caught by the CRC frame
/// on open and by the checker gate on use.
///
//===----------------------------------------------------------------------===//

#include "store/CertStore.h"

#include "store/InputHash.h"
#include "support/Budget.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

using namespace canvas;
using namespace canvas::store;

namespace fs = std::filesystem;

namespace {

constexpr uint32_t FrameMagic = 0x53564E43; // "CNVS" little-endian.
constexpr const char *ManifestLine = "canvas-cert-store v1\n";

[[noreturn]] void ioError(std::string What) {
  throw CertifyError(CertifyErrorKind::StoreIO, std::move(What), "store");
}

std::string hex16(uint64_t V) {
  static const char *Digits = "0123456789abcdef";
  std::string Out(16, '0');
  for (int I = 15; I >= 0; --I, V >>= 4)
    Out[I] = Digits[V & 0xF];
  return Out;
}

/// Reads a whole file; false on any I/O failure (caller decides whether
/// that is an error or a miss).
bool readFileBytes(const std::string &File, std::vector<uint8_t> &Out) {
  std::ifstream In(File, std::ios::binary);
  if (!In)
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return !In.bad();
}

void encodeLoc(cert::Writer &W, SourceLoc L) {
  W.u32(L.Line);
  W.u32(L.Col);
}

SourceLoc decodeLoc(cert::Reader &R) {
  SourceLoc L;
  L.Line = R.u32();
  L.Col = R.u32();
  return L;
}

std::vector<uint8_t> encodeEntry(const StoreEntry &E) {
  cert::Writer W;
  W.u64(E.InputHash);
  W.str(E.Unit);
  W.str(E.Engine);
  W.u8(E.HasSummary ? 1 : 0);
  if (E.HasSummary) {
    W.u32(E.Slices);
    W.str(E.ForcedSingleReason);
  }
  W.u32(static_cast<uint32_t>(E.Checks.size()));
  for (const core::CheckRecord &C : E.Checks) {
    W.str(C.Method);
    encodeLoc(W, C.Loc);
    W.str(C.What);
    W.u8(static_cast<uint8_t>(C.Outcome));
    encodeLoc(W, C.ReqLoc);
    W.u8(C.Degraded ? 1 : 0);
    W.str(C.DegradeNote);
    W.str(C.Witness.SeedFact);
    W.u32(static_cast<uint32_t>(C.Witness.Steps.size()));
    for (const core::WitnessStep &S : C.Witness.Steps) {
      W.u8(static_cast<uint8_t>(S.K));
      W.str(S.Method);
      W.i32(S.Edge);
      encodeLoc(W, S.Loc);
      W.str(S.ActionText);
      W.str(S.Fact);
    }
  }
  W.u8(E.HasCert ? 1 : 0);
  if (E.HasCert) {
    W.u64(E.CertHash);
    W.bytes(cert::serializeCertificates({E.Cert}));
  }
  return W.take();
}

bool decodeEntry(const std::vector<uint8_t> &Payload, StoreEntry &Out,
                 std::string &Error) {
  cert::Reader R(Payload);
  Out.InputHash = R.u64();
  Out.Unit = R.str();
  Out.Engine = R.str();
  Out.HasSummary = R.u8() != 0;
  if (Out.HasSummary) {
    Out.Slices = R.u32();
    Out.ForcedSingleReason = R.str();
  }
  const uint32_t NumChecks = R.u32();
  for (uint32_t I = 0; I != NumChecks && !R.failed(); ++I) {
    core::CheckRecord C;
    C.Method = R.str();
    C.Loc = decodeLoc(R);
    C.What = R.str();
    uint8_t O = R.u8();
    if (O > static_cast<uint8_t>(core::CheckOutcome::Unreachable)) {
      Error = "out-of-range check outcome";
      return false;
    }
    C.Outcome = static_cast<core::CheckOutcome>(O);
    C.ReqLoc = decodeLoc(R);
    C.Degraded = R.u8() != 0;
    C.DegradeNote = R.str();
    C.Witness.SeedFact = R.str();
    const uint32_t NumSteps = R.u32();
    for (uint32_t J = 0; J != NumSteps && !R.failed(); ++J) {
      core::WitnessStep S;
      uint8_t K = R.u8();
      if (K > static_cast<uint8_t>(core::WitnessStep::Kind::Check)) {
        Error = "out-of-range witness step kind";
        return false;
      }
      S.K = static_cast<core::WitnessStep::Kind>(K);
      S.Method = R.str();
      S.Edge = R.i32();
      S.Loc = decodeLoc(R);
      S.ActionText = R.str();
      S.Fact = R.str();
      C.Witness.Steps.push_back(std::move(S));
    }
    Out.Checks.push_back(std::move(C));
  }
  Out.HasCert = R.u8() != 0;
  if (Out.HasCert) {
    Out.CertHash = R.u64();
    std::vector<uint8_t> Container = R.bytes();
    if (R.failed()) {
      Error = "truncated payload";
      return false;
    }
    std::vector<cert::Certificate> Certs;
    // parseCertificates re-verifies each certificate's content hash, so
    // a tampered certificate body dies here, before the checker gate.
    if (!cert::parseCertificates(Container, Certs, Error))
      return false;
    if (Certs.size() != 1) {
      Error = "entry must embed exactly one certificate";
      return false;
    }
    Out.Cert = std::move(Certs[0]);
    if (Out.CertHash != Out.Cert.ContentHash) {
      Error = "stored certificate hash disagrees with the certificate";
      return false;
    }
  }
  if (!R.done()) {
    Error = "truncated or oversized payload";
    return false;
  }
  return true;
}

} // namespace

uint32_t store::crc32(const uint8_t *Data, size_t Size) {
  static const std::array<uint32_t, 256> Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? (0xEDB88320u ^ (C >> 1)) : (C >> 1);
      T[I] = C;
    }
    return T;
  }();
  uint32_t C = 0xFFFFFFFFu;
  for (size_t I = 0; I != Size; ++I)
    C = Table[(C ^ Data[I]) & 0xFFu] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

std::string CertStore::entryFileName(uint64_t InputHash,
                                     const std::string &Unit) {
  const uint64_t UnitHash = cert::fnv1a(
      reinterpret_cast<const uint8_t *>(Unit.data()), Unit.size());
  return hex16(InputHash) + "-" + hex16(UnitHash) + ".cert";
}

std::vector<uint8_t> CertStore::frameEntry(const StoreEntry &E) {
  std::vector<uint8_t> Payload = encodeEntry(E);
  cert::Writer W;
  W.u32(FrameMagic);
  W.u32(EntryFormatVersion);
  W.u32(static_cast<uint32_t>(Payload.size()));
  W.u32(crc32(Payload.data(), Payload.size()));
  std::vector<uint8_t> Out = W.take();
  Out.insert(Out.end(), Payload.begin(), Payload.end());
  return Out;
}

bool CertStore::parseFrame(const std::vector<uint8_t> &Bytes, StoreEntry &Out,
                           std::string &Error) {
  if (Bytes.size() < 16) {
    Error = "frame shorter than its header";
    return false;
  }
  cert::Reader R(Bytes.data(), 16);
  if (R.u32() != FrameMagic) {
    Error = "bad frame magic";
    return false;
  }
  if (R.u32() != EntryFormatVersion) {
    Error = "unsupported entry format version";
    return false;
  }
  const uint32_t Len = R.u32();
  const uint32_t Crc = R.u32();
  if (Bytes.size() - 16 != Len) {
    Error = "frame length disagrees with the file size";
    return false;
  }
  if (crc32(Bytes.data() + 16, Len) != Crc) {
    Error = "CRC mismatch (torn or corrupt record)";
    return false;
  }
  std::vector<uint8_t> Payload(Bytes.begin() + 16, Bytes.end());
  return decodeEntry(Payload, Out, Error);
}

std::string CertStore::entriesDir() const { return Root + "/entries"; }
std::string CertStore::quarantineDir() const { return Root + "/quarantine"; }
std::string CertStore::journalPath() const { return Root + "/journal.log"; }
std::string CertStore::lockPath() const { return Root + "/LOCK"; }

/// Acquires the exclusive multi-process lock: one LOCK_NB attempt and,
/// when another process holds the lock, one contended acquisition
/// (counted in Stats.LockWaits so contention is observable) that blocks
/// in flock. Blocking indefinitely is safe here — the kernel
/// releases a dead holder's flock automatically, and every critical
/// section is a bounded journal/commit operation, so a live holder
/// always hands the lock over; a bounded give-up only manufactured
/// spurious storeless runs when N workers oversubscribe one core.
/// ReadOnly stores and re-entrant scopes (LockHeld) take nothing.
///
/// LOCK is opened afresh for every acquisition and closed on release:
/// flock binds to the inode behind the descriptor, so a descriptor kept
/// from open time would go on locking an unlinked inode once the root
/// is replaced (a backup restored under a long-lived instance) while
/// other processes lock the new one.
class CertStore::ScopedLock {
public:
  explicit ScopedLock(CertStore &S) : S(S) {
    if (S.Mode == StoreMode::ReadOnly || S.LockHeld)
      return;
    // O_CREAT is atomic across racing openers.
    Fd = ::open(S.lockPath().c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (Fd < 0)
      ioError("cannot open the store lock '" + S.lockPath() +
              "': " + std::string(strerror(errno)));
    if (::flock(Fd, LOCK_EX | LOCK_NB) != 0) {
      if (errno != EWOULDBLOCK && errno != EINTR)
        fail();
      ++S.Stats.LockWaits;
      while (::flock(Fd, LOCK_EX) != 0) {
        if (errno != EINTR)
          fail();
      }
    }
    S.LockHeld = true;
  }

  ~ScopedLock() {
    if (Fd < 0)
      return;
    S.LockHeld = false;
    ::flock(Fd, LOCK_UN);
    ::close(Fd);
  }

  ScopedLock(const ScopedLock &) = delete;
  ScopedLock &operator=(const ScopedLock &) = delete;

private:
  /// The constructor throws, so the destructor will not close Fd.
  [[noreturn]] void fail() {
    const std::string Why = strerror(errno);
    ::close(Fd);
    ioError("cannot lock the store: " + Why);
  }

  CertStore &S;
  int Fd = -1; ///< Open on LOCK while this scope owns the lock.
};

CertStore::CertStore(std::string RootPath, StoreMode Mode)
    : Root(std::move(RootPath)), Mode(Mode) {
  support::faultProbe("store-open");
  std::error_code EC;
  if (Mode == StoreMode::ReadWrite) {
    fs::create_directories(entriesDir(), EC);
    if (EC)
      ioError("cannot create store at '" + Root + "': " + EC.message());
    fs::create_directories(quarantineDir(), EC);
    if (EC)
      ioError("cannot create quarantine at '" + Root + "': " + EC.message());
    ScopedLock L(*this);
    const std::string Manifest = Root + "/MANIFEST";
    if (!fs::exists(Manifest)) {
      std::ofstream Out(Manifest, std::ios::binary);
      Out << ManifestLine;
      if (!Out)
        ioError("cannot write the store manifest");
    }
    recover();
  } else {
    if (!fs::is_directory(Root, EC) || !fs::is_directory(entriesDir(), EC))
      ioError("read-only open of a missing store '" + Root + "'");
    recover();
  }
}

void CertStore::recover() {
  support::faultProbe("store-recover");
  std::error_code EC;

  // --- Journal scan: committed ("C") records cancel intents ("B"); a
  // trailing fragment without a newline is a torn append and is
  // discarded; unknown lines are ignored (forward compatibility).
  std::vector<std::string> Pending;
  {
    std::vector<uint8_t> Raw;
    if (readFileBytes(journalPath(), Raw)) {
      std::vector<std::string> Begun;
      size_t Start = 0;
      for (size_t I = 0; I != Raw.size(); ++I) {
        if (Raw[I] != '\n')
          continue;
        std::string Line(Raw.begin() + Start, Raw.begin() + I);
        Start = I + 1;
        if (Line.size() < 3 || Line[1] != ' ')
          continue;
        if (Line[0] == 'B')
          Begun.push_back(Line.substr(2));
        else if (Line[0] == 'C')
          Begun.erase(std::remove(Begun.begin(), Begun.end(), Line.substr(2)),
                      Begun.end());
      }
      Pending = std::move(Begun);
    }
  }
  Stats.JournalRecovered += static_cast<unsigned>(Pending.size());
  for (const std::string &File : Pending)
    Incidents.push_back({"", "StoreRecover",
                         "uncommitted journal intent for '" + File +
                             "' (crashed commit; entry is pre- or "
                             "post-state by construction)"});

  // --- Stray temp files: a crashed commit's half-written frame. The
  // final entry is only ever produced by rename, so temps are garbage.
  if (fs::is_directory(entriesDir(), EC) && !EC) {
    for (const fs::directory_entry &DE :
         fs::directory_iterator(entriesDir(), EC)) {
      const std::string Name = DE.path().filename().string();
      if (Name.find(".tmp") == std::string::npos)
        continue;
      if (Mode == StoreMode::ReadWrite) {
        fs::remove(DE.path(), EC);
        ++Stats.TempsRemoved;
      }
    }
  }
  fs::path JournalTmp = fs::path(Root) / "journal.tmp";
  if (Mode == StoreMode::ReadWrite && fs::exists(JournalTmp, EC))
    fs::remove(JournalTmp, EC);

  // --- Frame validation sweep: quarantine anything whose CRC frame or
  // payload no longer decodes (bit rot, truncation, hostile edits).
  std::vector<std::string> Files;
  if (fs::is_directory(entriesDir(), EC) && !EC)
    for (const fs::directory_entry &DE :
         fs::directory_iterator(entriesDir(), EC)) {
      const std::string Name = DE.path().filename().string();
      if (Name.size() > 5 && Name.substr(Name.size() - 5) == ".cert")
        Files.push_back(DE.path().string());
    }
  std::sort(Files.begin(), Files.end());
  for (const std::string &File : Files) {
    std::vector<uint8_t> Bytes;
    StoreEntry E;
    std::string Error;
    if (readFileBytes(File, Bytes) && parseFrame(Bytes, E, Error))
      continue;
    if (Error.empty())
      Error = "unreadable entry file";
    quarantineFile(File, E.Unit, Error);
  }

  // --- Journal compaction: every surviving entry is validated, so the
  // journal's history is dead weight; rewrite it empty via temp+rename
  // (a short write tears only the temp, which the next open removes).
  if (Mode == StoreMode::ReadWrite) {
    const support::FaultAction A = support::faultProbeAction("store-recover");
    std::ofstream Out(JournalTmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      ioError("cannot write the compacted journal");
    if (A == support::FaultAction::ShortWrite) {
      Out << "B torn-compaction-";
      Out.flush();
      ioError("injected short write compacting the journal");
    }
    Out.close();
    fs::rename(JournalTmp, journalPath(), EC);
    if (EC)
      ioError("cannot swap in the compacted journal: " + EC.message());
  }
}

void CertStore::quarantineFile(const std::string &File,
                               const std::string &Unit,
                               const std::string &Reason) {
  const std::string Name = fs::path(File).filename().string();
  if (Mode == StoreMode::ReadOnly) {
    ++Stats.SkippedInvalid;
    Incidents.push_back(
        {Unit, "StoreEntryInvalid", Name + ": " + Reason + " (read-only: skipped)"});
    return;
  }
  ScopedLock L(*this);
  std::error_code EC;
  fs::path Dest = fs::path(quarantineDir()) / Name;
  for (unsigned I = 1; fs::exists(Dest, EC); ++I)
    Dest = fs::path(quarantineDir()) / (Name + "." + std::to_string(I));
  fs::rename(File, Dest, EC);
  if (EC) {
    // Renaming within one directory tree should not fail; if it does,
    // fall back to removal so the poisoned entry cannot be served.
    fs::remove(File, EC);
  }
  ++Stats.Quarantined;
  Incidents.push_back({Unit, "StoreQuarantine", Name + ": " + Reason});
}

std::vector<StoreIncident> CertStore::takeIncidents() {
  std::vector<StoreIncident> Out = std::move(Incidents);
  Incidents.clear();
  return Out;
}

std::unique_ptr<StoreEntry> CertStore::get(uint64_t InputHash,
                                           const std::string &Unit) {
  support::faultProbe("store-read");
  const std::string File =
      entriesDir() + "/" + entryFileName(InputHash, Unit);
  std::error_code EC;
  if (!fs::exists(File, EC) || EC)
    return nullptr;
  std::vector<uint8_t> Bytes;
  if (!readFileBytes(File, Bytes))
    ioError("cannot read store entry '" + File + "'");
  auto E = std::make_unique<StoreEntry>();
  std::string Error;
  if (!parseFrame(Bytes, *E, Error)) {
    quarantineFile(File, Unit, Error);
    return nullptr;
  }
  if (E->InputHash != InputHash || E->Unit != Unit) {
    quarantineFile(File, Unit, "entry key disagrees with its file name");
    return nullptr;
  }
  return E;
}

void CertStore::appendJournal(const std::string &Line) {
  const support::FaultAction A = support::faultProbeAction("store-commit");
  std::ofstream Out(journalPath(), std::ios::binary | std::ios::app);
  if (!Out)
    ioError("cannot append to the store journal");
  if (A == support::FaultAction::ShortWrite) {
    // A torn append: half the record, no newline — exactly what a
    // crash mid-write leaves. Recovery discards the fragment.
    Out << Line.substr(0, Line.size() / 2);
    Out.flush();
    ioError("injected short write appending '" + Line + "'");
  }
  Out << Line << '\n';
  Out.flush();
  if (!Out)
    ioError("store journal append failed");
}

void CertStore::put(const StoreEntry &E) {
  if (Mode == StoreMode::ReadOnly)
    ioError("put into a read-only store");
  // The lock spans the whole commit protocol, so concurrent processes
  // serialize journal appends and no live temp of one process can be
  // swept by another's recovery. A crash mid-commit drops the lock via
  // the kernel; the half-done commit is the next recovery's problem,
  // exactly as in the single-process story.
  ScopedLock L(*this);
  const std::string Name = entryFileName(E.InputHash, E.Unit);
  appendJournal("B " + Name);

  // Temps are pid-qualified so two processes committing the same key
  // can never collide on a temp name.
  static std::atomic<unsigned> TempCounter{0};
  const std::string Tmp = entriesDir() + "/" + Name + ".tmp" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(TempCounter.fetch_add(1));
  const std::vector<uint8_t> Frame = frameEntry(E);
  {
    const support::FaultAction A = support::faultProbeAction("store-commit");
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      ioError("cannot write store temp '" + Tmp + "'");
    const size_t N =
        A == support::FaultAction::ShortWrite ? Frame.size() / 2 : Frame.size();
    Out.write(reinterpret_cast<const char *>(Frame.data()),
              static_cast<std::streamsize>(N));
    Out.flush();
    if (A == support::FaultAction::ShortWrite)
      ioError("injected short write on store temp '" + Tmp + "'");
    if (!Out)
      ioError("short write on store temp '" + Tmp + "'");
  }

  if (support::faultProbeAction("store-commit") ==
      support::FaultAction::ShortWrite) {
    // Simulated crash between the temp write and the rename: the temp
    // survives for recovery to sweep, the entry is untouched.
    ioError("injected crash before committing '" + Name + "'");
  }
  std::error_code EC;
  fs::rename(Tmp, entriesDir() + "/" + Name, EC);
  if (EC)
    ioError("cannot commit store entry '" + Name + "': " + EC.message());

  appendJournal("C " + Name);
  ++Stats.Writes;
}

void CertStore::evict(uint64_t InputHash, const std::string &Unit,
                      const std::string &Reason) {
  if (Mode == StoreMode::ReadOnly)
    return;
  const std::string File =
      entriesDir() + "/" + entryFileName(InputHash, Unit);
  std::error_code EC;
  if (!fs::exists(File, EC) || EC)
    return;
  quarantineFile(File, Unit, Reason);
}

std::vector<StoreEntry> CertStore::listEntries() {
  std::error_code EC;
  std::vector<std::string> Files;
  if (fs::is_directory(entriesDir(), EC) && !EC)
    for (const fs::directory_entry &DE :
         fs::directory_iterator(entriesDir(), EC)) {
      const std::string Name = DE.path().filename().string();
      if (Name.size() > 5 && Name.substr(Name.size() - 5) == ".cert")
        Files.push_back(DE.path().string());
    }
  std::sort(Files.begin(), Files.end());
  std::vector<StoreEntry> Out;
  for (const std::string &File : Files) {
    std::vector<uint8_t> Bytes;
    StoreEntry E;
    std::string Error;
    if (!readFileBytes(File, Bytes) || !parseFrame(Bytes, E, Error)) {
      quarantineFile(File, E.Unit,
                     Error.empty() ? "unreadable entry file" : Error);
      continue;
    }
    Out.push_back(std::move(E));
  }
  std::sort(Out.begin(), Out.end(), [](const StoreEntry &A, const StoreEntry &B) {
    return A.Unit != B.Unit ? A.Unit < B.Unit : A.InputHash < B.InputHash;
  });
  return Out;
}
