//===----------------------------------------------------------------------===//
// Concurrent shared use of one CertStore root — the tentpole's locking
// contract. Two threads with their own instances hammer one root
// (instances serialize through the flock on LOCK); two processes hammer
// one root while one of them crash-dies at every store-commit probe
// (fork + _exit, so the kernel really does reclaim a dead holder's
// lock). After every storm: reopen recovers, zero quarantined entries,
// every committed entry reads back byte-exact. Lock contention shows on
// the certification report as StoreReport::LockWaits.
//===----------------------------------------------------------------------===//

#include "core/Certifier.h"
#include "easl/Builtins.h"
#include "store/CertStore.h"
#include "support/Budget.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace canvas;
using namespace canvas::store;

namespace fs = std::filesystem;

namespace {

StoreEntry makeEntry(const std::string &Unit, uint32_t Salt) {
  StoreEntry E;
  E.InputHash = 0xC0FFEE0000ull + Salt;
  E.Unit = Unit;
  E.Engine = "scmp-intra";
  core::CheckRecord C;
  C.Method = Unit;
  C.Loc.Line = static_cast<int>(Salt);
  C.What = "i.next() requires !P0(this)";
  C.Outcome = core::CheckOutcome::Safe;
  E.Checks.push_back(C);
  cert::Certificate Cert;
  Cert.Kind = cert::CertKind::BoolIntra;
  Cert.Unit = Unit;
  Cert.Claims.push_back({0, core::CheckOutcome::Safe});
  Cert.Payload = {9, 8, 7, static_cast<uint8_t>(Salt)};
  Cert.seal();
  E.HasCert = true;
  E.Cert = Cert;
  E.CertHash = Cert.ContentHash;
  return E;
}

std::string freshDir(const std::string &Tag) {
  std::string Dir = ::testing::TempDir() + "/shard-store-" + Tag + "-" +
                    std::to_string(static_cast<long>(::getpid()));
  fs::remove_all(Dir);
  return Dir;
}

TEST(StoreContentionTest, TwoThreadsOwnInstancesOneRootAllCommitsLand) {
  const std::string Dir = freshDir("threads");
  constexpr unsigned PerThread = 12;

  auto Hammer = [&Dir](unsigned Tid) {
    // Own instance per thread: the class is not thread-safe, the ROOT
    // is — instances serialize through the file lock.
    CertStore St(Dir, StoreMode::ReadWrite);
    for (unsigned I = 0; I != PerThread; ++I)
      St.put(makeEntry("T" + std::to_string(Tid) + "::m" + std::to_string(I),
                       Tid * 100 + I));
  };
  std::thread A(Hammer, 1), B(Hammer, 2);
  A.join();
  B.join();

  CertStore Re(Dir, StoreMode::ReadWrite);
  EXPECT_EQ(Re.stats().Quarantined, 0u);
  for (unsigned Tid = 1; Tid <= 2; ++Tid)
    for (unsigned I = 0; I != PerThread; ++I) {
      const StoreEntry E =
          makeEntry("T" + std::to_string(Tid) + "::m" + std::to_string(I),
                    Tid * 100 + I);
      std::unique_ptr<StoreEntry> Got = Re.get(E.InputHash, E.Unit);
      ASSERT_TRUE(Got) << E.Unit;
      EXPECT_EQ(CertStore::frameEntry(*Got), CertStore::frameEntry(E))
          << E.Unit;
    }
  fs::remove_all(Dir);
}

// put() walks four store-commit probes (journal intent, temp write,
// pre-rename, journal completion); probe 5 is the clean run. At every
// one, a CHILD PROCESS dies mid-commit (_exit, no unwind, flock
// reclaimed by the kernel) while the parent keeps committing through
// its own instance. The store must end with the parent's entries
// intact, the child's entry atomically present-or-absent, and nothing
// quarantined.
TEST(StoreContentionTest, ProcessCrashMidCommitAtEveryProbeNeverCorrupts) {
  constexpr unsigned ProbesPerPut = 4;
  for (unsigned Probe = 1; Probe <= ProbesPerPut + 1; ++Probe) {
    const std::string Dir = freshDir("crash-" + std::to_string(Probe));
    const StoreEntry ChildE = makeEntry("Child::m", 7);
    {
      // Lay the store down before forking so both sides open an
      // existing root.
      CertStore St(Dir, StoreMode::ReadWrite);
    }

    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      // Child: crash-die at the probe. No gtest, no unwinding past the
      // catch — _exit leaves whatever bytes the torn write produced.
      support::setFaultPlan(
          {"store-commit", Probe, support::FaultKind::ShortWrite});
      try {
        CertStore St(Dir, StoreMode::ReadWrite);
        St.put(ChildE);
      } catch (...) {
        ::_exit(42);
      }
      ::_exit(0);
    }

    // Parent: hammer the same root while the child crashes.
    {
      CertStore St(Dir, StoreMode::ReadWrite);
      for (unsigned I = 0; I != 6; ++I)
        St.put(makeEntry("Parent::m" + std::to_string(I), I));
    }
    int Status = 0;
    ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
    ASSERT_TRUE(WIFEXITED(Status));
    const int Code = WEXITSTATUS(Status);
    EXPECT_TRUE(Code == 0 || Code == 42) << "probe " << Probe;

    CertStore Re(Dir, StoreMode::ReadWrite);
    EXPECT_EQ(Re.stats().Quarantined, 0u) << "probe " << Probe;
    for (unsigned I = 0; I != 6; ++I) {
      const StoreEntry E = makeEntry("Parent::m" + std::to_string(I), I);
      std::unique_ptr<StoreEntry> Got = Re.get(E.InputHash, E.Unit);
      ASSERT_TRUE(Got) << "probe " << Probe << " parent entry " << I;
      EXPECT_EQ(CertStore::frameEntry(*Got), CertStore::frameEntry(E));
    }
    std::unique_ptr<StoreEntry> Got = Re.get(ChildE.InputHash, ChildE.Unit);
    if (Got)
      EXPECT_EQ(CertStore::frameEntry(*Got), CertStore::frameEntry(ChildE))
          << "probe " << Probe;
    else
      EXPECT_NE(Code, 0) << "probe " << Probe
                         << ": child claimed success but the entry is gone";
    // The recovered store still accepts commits.
    Re.put(makeEntry("After::m", 99));
    EXPECT_TRUE(Re.get(makeEntry("After::m", 99).InputHash, "After::m"));
    fs::remove_all(Dir);
  }
}

// A long-lived instance whose root is replaced under it (a restored
// backup: remove the root, copy the snapshot back) must lock the new
// root's LOCK, not the unlinked inode it saw at open. The test holds
// flock on the new LOCK; the instance's put must wait for it.
TEST(StoreContentionTest, ReplacedRootLocksTheNewLockFile) {
  const std::string Dir = freshDir("replaced");
  const std::string Snapshot = Dir + "-snapshot";
  fs::remove_all(Snapshot);
  CertStore St(Dir, StoreMode::ReadWrite);
  St.put(makeEntry("Before::m", 1));
  fs::copy(Dir, Snapshot, fs::copy_options::recursive);
  fs::remove_all(Dir);
  fs::copy(Snapshot, Dir, fs::copy_options::recursive);

  const int Fd = ::open((Dir + "/LOCK").c_str(), O_RDWR | O_CLOEXEC);
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(::flock(Fd, LOCK_EX), 0);
  const StoreEntry Late = makeEntry("Late::m", 2);
  bool Threw = false;
  std::thread Committer([&] {
    try {
      St.put(Late);
    } catch (const CertifyError &) {
      Threw = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  // While the test holds the lock, the commit has not landed.
  EXPECT_FALSE(fs::exists(Dir + "/entries/" +
                          CertStore::entryFileName(Late.InputHash, Late.Unit)));
  // A commit made under the test's lock lands too (the frame is written
  // whole by rename, as put would).
  const StoreEntry Held = makeEntry("Held::m", 3);
  {
    const std::vector<uint8_t> Frame = CertStore::frameEntry(Held);
    const std::string Tmp = Dir + "/held.tmp";
    std::ofstream Out(Tmp, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(Frame.data()),
              static_cast<std::streamsize>(Frame.size()));
    Out.close();
    fs::rename(Tmp, Dir + "/entries/" +
                        CertStore::entryFileName(Held.InputHash, Held.Unit));
  }
  ::flock(Fd, LOCK_UN);
  ::close(Fd);
  Committer.join();
  ASSERT_FALSE(Threw);
  EXPECT_GT(St.stats().LockWaits, 0u);

  CertStore Re(Dir, StoreMode::ReadWrite);
  EXPECT_EQ(Re.stats().Quarantined, 0u);
  for (const StoreEntry &E : {makeEntry("Before::m", 1), Late, Held}) {
    std::unique_ptr<StoreEntry> Got = Re.get(E.InputHash, E.Unit);
    ASSERT_TRUE(Got) << E.Unit;
    EXPECT_EQ(CertStore::frameEntry(*Got), CertStore::frameEntry(E));
  }
  fs::remove_all(Dir);
  fs::remove_all(Snapshot);
}

// A commit that finds the store lock held waits for it, and the report
// of that certify call counts the contended acquisitions; calls that met
// no contention report none, so the count is per call, not cumulative.
TEST(StoreContentionTest, HeldLockShowsAsReportLockWaits) {
  const std::string Dir = freshDir("report-waits");
  core::CertifierOptions Opts;
  Opts.StorePath = Dir;
  DiagnosticEngine Diags;
  const core::Certifier C(easl::cmpSpecSource(), core::EngineKind::SCMPIntra,
                          Diags, wp::DerivationOptions{}, Opts);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  auto Client = [](const char *Name) {
    return std::string("class M {\n  void ") + Name +
           "() {\n    Set s = new Set();\n    Iterator i = "
           "s.iterator();\n    i.next();\n  }\n}\n";
  };

  const core::CertificationReport Cold =
      C.certifySource(Client("main"), Diags);
  ASSERT_EQ(Cold.Store.Writes, 1u);
  EXPECT_EQ(Cold.Store.LockWaits, 0u);

  // Hold LOCK while a call with a new unit must commit.
  const int Fd = ::open((Dir + "/LOCK").c_str(), O_RDWR | O_CLOEXEC);
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(::flock(Fd, LOCK_EX), 0);
  core::CertificationReport Held;
  std::thread Certify([&] {
    DiagnosticEngine D;
    Held = C.certifySource(Client("other"), D);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ::flock(Fd, LOCK_UN);
  ::close(Fd);
  Certify.join();
  EXPECT_EQ(Held.Store.Writes, 1u);
  EXPECT_GT(Held.Store.LockWaits, 0u);

  const core::CertificationReport Warm =
      C.certifySource(Client("other"), Diags);
  EXPECT_EQ(Warm.Store.Hits, 1u);
  EXPECT_EQ(Warm.Store.LockWaits, 0u);
  fs::remove_all(Dir);
}

} // namespace
