//===----------------------------------------------------------------------===//
// The pipe protocol: framing round-trips over a real pipe, CRC and
// truncation corruption is rejected as a torn frame, and a closed pipe
// with zero pending bytes is a clean EOF — the distinction the driver's
// crash/requeue logic keys on.
//===----------------------------------------------------------------------===//

#include "shard/Protocol.h"

#include <gtest/gtest.h>

#include <unistd.h>

using namespace canvas;
using namespace canvas::shard;

namespace {

struct Pipe {
  int Fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(Fds), 0); }
  ~Pipe() {
    closeRead();
    closeWrite();
  }
  int readFd() const { return Fds[0]; }
  int writeFd() const { return Fds[1]; }
  void closeRead() {
    if (Fds[0] >= 0)
      ::close(Fds[0]);
    Fds[0] = -1;
  }
  void closeWrite() {
    if (Fds[1] >= 0)
      ::close(Fds[1]);
    Fds[1] = -1;
  }
};

TaskMsg sampleTask() {
  TaskMsg T;
  T.Index = 7;
  T.Name = "gen-0007";
  T.Source = "class G { void main() { Set s = new Set(); } }\n";
  T.Retry = 1;
  return T;
}

ResultMsg sampleResult() {
  ResultMsg R;
  R.Index = 7;
  R.Name = "gen-0007";
  R.ReportText = "G::main 1:1: check: verified\n1 check(s)\n";
  R.DiagText = "warning: something\n";
  R.ParseFailed = 0;
  R.Degraded = 1;
  R.Checks = 3;
  R.Flagged = 1;
  R.WorkerPid = 4242;
  R.Micros = 123456789ull;
  R.StoreHits = 2;
  R.StoreMisses = 1;
  R.StoreRejected = 0;
  R.StoreQuarantined = 0;
  R.StoreWrites = 1;
  R.StoreLockWaits = 5;
  R.Methods.push_back({"G::main", 2, 1});
  R.Methods.push_back({"G::helper", 1, 0});
  return R;
}

/// Reads all bytes until EOF (test-side raw capture for corruption).
std::vector<uint8_t> drain(int Fd) {
  std::vector<uint8_t> Out;
  uint8_t Buf[4096];
  for (;;) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N <= 0)
      return Out;
    Out.insert(Out.end(), Buf, Buf + N);
  }
}

bool writeRaw(int Fd, const std::vector<uint8_t> &Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = ::write(Fd, Bytes.data() + Off, Bytes.size() - Off);
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

TEST(ShardProtocolTest, TaskRoundTripsOverPipe) {
  const TaskMsg T = sampleTask();
  Pipe P;
  ASSERT_TRUE(writeFrame(P.writeFd(), MsgType::Task, encodeTask(T)));
  P.closeWrite();

  MsgType Type;
  std::vector<uint8_t> Payload;
  bool AtEof = false;
  std::string Error;
  ASSERT_TRUE(readFrame(P.readFd(), Type, Payload, AtEof, Error)) << Error;
  EXPECT_EQ(Type, MsgType::Task);
  TaskMsg Got;
  ASSERT_TRUE(decodeTask(Payload, Got, Error)) << Error;
  EXPECT_EQ(Got.Index, T.Index);
  EXPECT_EQ(Got.Name, T.Name);
  EXPECT_EQ(Got.Source, T.Source);
  EXPECT_EQ(Got.Retry, T.Retry);

  // The stream is now at a clean EOF.
  EXPECT_FALSE(readFrame(P.readFd(), Type, Payload, AtEof, Error));
  EXPECT_TRUE(AtEof);
}

TEST(ShardProtocolTest, ResultRoundTripsWithEveryField) {
  const ResultMsg R = sampleResult();
  Pipe P;
  ASSERT_TRUE(writeFrame(P.writeFd(), MsgType::Result, encodeResult(R)));
  P.closeWrite();

  MsgType Type;
  std::vector<uint8_t> Payload;
  bool AtEof = false;
  std::string Error;
  ASSERT_TRUE(readFrame(P.readFd(), Type, Payload, AtEof, Error)) << Error;
  EXPECT_EQ(Type, MsgType::Result);
  ResultMsg Got;
  ASSERT_TRUE(decodeResult(Payload, Got, Error)) << Error;
  EXPECT_EQ(Got.Index, R.Index);
  EXPECT_EQ(Got.Name, R.Name);
  EXPECT_EQ(Got.ReportText, R.ReportText);
  EXPECT_EQ(Got.DiagText, R.DiagText);
  EXPECT_EQ(Got.ParseFailed, R.ParseFailed);
  EXPECT_EQ(Got.Degraded, R.Degraded);
  EXPECT_EQ(Got.Checks, R.Checks);
  EXPECT_EQ(Got.Flagged, R.Flagged);
  EXPECT_EQ(Got.WorkerPid, R.WorkerPid);
  EXPECT_EQ(Got.Micros, R.Micros);
  EXPECT_EQ(Got.StoreHits, R.StoreHits);
  EXPECT_EQ(Got.StoreMisses, R.StoreMisses);
  EXPECT_EQ(Got.StoreRejected, R.StoreRejected);
  EXPECT_EQ(Got.StoreQuarantined, R.StoreQuarantined);
  EXPECT_EQ(Got.StoreWrites, R.StoreWrites);
  EXPECT_EQ(Got.StoreLockWaits, R.StoreLockWaits);
  ASSERT_EQ(Got.Methods.size(), R.Methods.size());
  for (size_t I = 0; I != R.Methods.size(); ++I) {
    EXPECT_EQ(Got.Methods[I].Method, R.Methods[I].Method);
    EXPECT_EQ(Got.Methods[I].Checks, R.Methods[I].Checks);
    EXPECT_EQ(Got.Methods[I].Flagged, R.Methods[I].Flagged);
  }
}

TEST(ShardProtocolTest, CorruptedPayloadFailsCrcNotEof) {
  Pipe Cap;
  ASSERT_TRUE(writeFrame(Cap.writeFd(), MsgType::Task,
                         encodeTask(sampleTask())));
  Cap.closeWrite();
  std::vector<uint8_t> Raw = drain(Cap.readFd());
  ASSERT_FALSE(Raw.empty());
  Raw.back() ^= 0xFF; // Flip a payload byte; the header stays intact.

  Pipe P;
  ASSERT_TRUE(writeRaw(P.writeFd(), Raw));
  P.closeWrite();
  MsgType Type;
  std::vector<uint8_t> Payload;
  bool AtEof = false;
  std::string Error;
  EXPECT_FALSE(readFrame(P.readFd(), Type, Payload, AtEof, Error));
  EXPECT_FALSE(AtEof);
  EXPECT_NE(Error.find("CRC"), std::string::npos) << Error;
}

TEST(ShardProtocolTest, CorruptedMagicRejected) {
  Pipe Cap;
  ASSERT_TRUE(writeFrame(Cap.writeFd(), MsgType::Task,
                         encodeTask(sampleTask())));
  Cap.closeWrite();
  std::vector<uint8_t> Raw = drain(Cap.readFd());
  Raw[0] ^= 0xFF;

  Pipe P;
  ASSERT_TRUE(writeRaw(P.writeFd(), Raw));
  P.closeWrite();
  MsgType Type;
  std::vector<uint8_t> Payload;
  bool AtEof = false;
  std::string Error;
  EXPECT_FALSE(readFrame(P.readFd(), Type, Payload, AtEof, Error));
  EXPECT_FALSE(AtEof);
  EXPECT_NE(Error.find("magic"), std::string::npos) << Error;
}

TEST(ShardProtocolTest, TruncationIsTornFrameNotCleanEof) {
  Pipe Cap;
  ASSERT_TRUE(writeFrame(Cap.writeFd(), MsgType::Task,
                         encodeTask(sampleTask())));
  Cap.closeWrite();
  std::vector<uint8_t> Raw = drain(Cap.readFd());

  // Truncate inside the header and inside the payload: both must be
  // torn frames (the driver treats them as a worker crash), never EOF.
  for (size_t Keep : {size_t(1), size_t(9), Raw.size() - 3}) {
    Pipe P;
    ASSERT_TRUE(writeRaw(
        P.writeFd(), std::vector<uint8_t>(Raw.begin(), Raw.begin() + Keep)));
    P.closeWrite();
    MsgType Type;
    std::vector<uint8_t> Payload;
    bool AtEof = false;
    std::string Error;
    EXPECT_FALSE(readFrame(P.readFd(), Type, Payload, AtEof, Error));
    EXPECT_FALSE(AtEof) << "keep=" << Keep;
    EXPECT_FALSE(Error.empty()) << "keep=" << Keep;
  }
}

TEST(ShardProtocolTest, MalformedPayloadRejectedByDecoder) {
  std::vector<uint8_t> Payload = encodeTask(sampleTask());
  Payload.push_back(0); // Trailing garbage: Reader::done() must refuse.
  TaskMsg T;
  std::string Error;
  EXPECT_FALSE(decodeTask(Payload, T, Error));

  std::vector<uint8_t> Short = encodeResult(sampleResult());
  Short.resize(Short.size() / 2);
  ResultMsg R;
  EXPECT_FALSE(decodeResult(Short, R, Error));
}

} // namespace
