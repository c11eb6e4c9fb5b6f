#include "shard/Protocol.h"

#include "cert/Certificate.h"
#include "store/CertStore.h"
#include "support/Subprocess.h"

using namespace canvas;
using namespace canvas::shard;

namespace {

/// Frames cap at 64 MiB: a corpus client source or a rendered report
/// beyond that is not a plausible message, it is a desynchronized or
/// hostile stream, and a bounded reject beats an unbounded allocation.
constexpr uint32_t MaxFrameBytes = 64u << 20;

constexpr size_t HeaderBytes = 4 + 4 + 1 + 4 + 4;

} // namespace

bool shard::writeFrame(int Fd, MsgType Type,
                       const std::vector<uint8_t> &Payload) {
  cert::Writer W;
  W.u32(ProtocolMagic);
  W.u32(ProtocolVersion);
  W.u8(static_cast<uint8_t>(Type));
  W.u32(static_cast<uint32_t>(Payload.size()));
  W.u32(store::crc32(Payload.data(), Payload.size()));
  std::vector<uint8_t> Frame = W.take();
  Frame.insert(Frame.end(), Payload.begin(), Payload.end());
  return support::writeAll(Fd, Frame.data(), Frame.size());
}

bool shard::readFrame(int Fd, MsgType &Type, std::vector<uint8_t> &Payload,
                      bool &AtEof, std::string &Error) {
  AtEof = false;
  Error.clear();
  uint8_t Header[HeaderBytes];
  // Distinguish clean EOF (zero header bytes) from a torn header: read
  // the first byte separately.
  if (!support::readAll(Fd, Header, 1)) {
    AtEof = true;
    return false;
  }
  if (!support::readAll(Fd, Header + 1, HeaderBytes - 1)) {
    Error = "torn frame header";
    return false;
  }
  cert::Reader R(Header, HeaderBytes);
  if (R.u32() != ProtocolMagic) {
    Error = "bad frame magic";
    return false;
  }
  if (R.u32() != ProtocolVersion) {
    Error = "unsupported protocol version";
    return false;
  }
  const uint8_t RawType = R.u8();
  const uint32_t Len = R.u32();
  const uint32_t Crc = R.u32();
  if (RawType < static_cast<uint8_t>(MsgType::Task) ||
      RawType > static_cast<uint8_t>(MsgType::Result)) {
    Error = "unknown message type";
    return false;
  }
  if (Len > MaxFrameBytes) {
    Error = "frame length exceeds the protocol cap";
    return false;
  }
  Payload.assign(Len, 0);
  if (Len && !support::readAll(Fd, Payload.data(), Len)) {
    Error = "torn frame payload";
    return false;
  }
  if (store::crc32(Payload.data(), Payload.size()) != Crc) {
    Error = "frame CRC mismatch";
    return false;
  }
  Type = static_cast<MsgType>(RawType);
  return true;
}

std::vector<uint8_t> shard::encodeTask(const TaskMsg &T) {
  cert::Writer W;
  W.u32(T.Index);
  W.str(T.Name);
  W.str(T.Source);
  W.u8(T.Retry);
  return W.take();
}

bool shard::decodeTask(const std::vector<uint8_t> &Payload, TaskMsg &Out,
                       std::string &Error) {
  cert::Reader R(Payload);
  Out.Index = R.u32();
  Out.Name = R.str();
  Out.Source = R.str();
  Out.Retry = R.u8();
  if (!R.done()) {
    Error = "malformed task payload";
    return false;
  }
  return true;
}

std::vector<uint8_t> shard::encodeResult(const ResultMsg &M) {
  cert::Writer W;
  W.u32(M.Index);
  W.str(M.Name);
  W.str(M.ReportText);
  W.str(M.DiagText);
  W.u8(M.ParseFailed);
  W.u8(M.Degraded);
  W.u32(M.Checks);
  W.u32(M.Flagged);
  W.u32(M.WorkerPid);
  W.u64(M.Micros);
  W.u32(M.StoreHits);
  W.u32(M.StoreMisses);
  W.u32(M.StoreRejected);
  W.u32(M.StoreQuarantined);
  W.u32(M.StoreWrites);
  W.u32(M.StoreLockWaits);
  W.u32(static_cast<uint32_t>(M.Methods.size()));
  for (const MethodVerdict &V : M.Methods) {
    W.str(V.Method);
    W.u32(V.Checks);
    W.u32(V.Flagged);
  }
  return W.take();
}

bool shard::decodeResult(const std::vector<uint8_t> &Payload, ResultMsg &Out,
                         std::string &Error) {
  cert::Reader R(Payload);
  Out.Index = R.u32();
  Out.Name = R.str();
  Out.ReportText = R.str();
  Out.DiagText = R.str();
  Out.ParseFailed = R.u8();
  Out.Degraded = R.u8();
  Out.Checks = R.u32();
  Out.Flagged = R.u32();
  Out.WorkerPid = R.u32();
  Out.Micros = R.u64();
  Out.StoreHits = R.u32();
  Out.StoreMisses = R.u32();
  Out.StoreRejected = R.u32();
  Out.StoreQuarantined = R.u32();
  Out.StoreWrites = R.u32();
  Out.StoreLockWaits = R.u32();
  const uint32_t NumMethods = R.u32();
  for (uint32_t I = 0; I != NumMethods && !R.failed(); ++I) {
    MethodVerdict V;
    V.Method = R.str();
    V.Checks = R.u32();
    V.Flagged = R.u32();
    Out.Methods.push_back(std::move(V));
  }
  if (!R.done()) {
    Error = "malformed result payload";
    return false;
  }
  return true;
}
