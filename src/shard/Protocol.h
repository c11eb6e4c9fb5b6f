//===----------------------------------------------------------------------===//
///
/// \file
/// The driver <-> worker wire protocol of the sharded certification
/// system: length-prefixed, CRC-framed messages over the worker's
/// stdin/stdout pipes, reusing the store's framing vocabulary
/// (cert::Writer / cert::Reader bounds-checked codecs + store::crc32).
///
/// Frame layout (all integers little-endian, as in the store codecs):
///
///   u32 magic   0x50564E43 ("CNVP")
///   u32 version ProtocolVersion
///   u8  type    MsgType
///   u32 length  payload byte count
///   u32 crc     CRC-32 (IEEE) of the payload bytes
///   ...         payload (type-specific, cert::Writer-encoded)
///
/// The CRC is not decorative: a worker that dies mid-write leaves a
/// torn frame on the pipe, and the driver must distinguish "worker
/// crashed, requeue its shard" from "worker answered garbage, abort".
/// Both readFrame failure modes surface as false + Error; EOF with zero
/// bytes read is reported separately so an orderly shutdown is not an
/// error.
///
/// Messages:
///   Task     driver -> worker   one corpus client to certify
///   Shutdown driver -> worker   drain and exit 0
///   Result   worker -> driver   full verdict record for one client
///
/// A Result carries the worker's rendered report text verbatim: the
/// merger's byte-identity guarantee reduces to "concatenate the same
/// texts in corpus order", independent of which worker produced which
/// client and in which order they arrived.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_SHARD_PROTOCOL_H
#define CANVAS_SHARD_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

namespace canvas {
namespace shard {

constexpr uint32_t ProtocolMagic = 0x50564E43; // "CNVP" little-endian.
constexpr uint32_t ProtocolVersion = 2;

enum class MsgType : uint8_t {
  Task = 1,
  Shutdown = 2,
  Result = 3,
};

/// One unit of shard work: a corpus client, shipped by value (name +
/// source text) so workers need no shared filesystem view of the
/// corpus.
struct TaskMsg {
  uint32_t Index = 0;  ///< Corpus position; the merge key.
  std::string Name;    ///< Corpus-relative client name.
  std::string Source;  ///< CJ source text.
  uint8_t Retry = 0;   ///< 1 when requeued after a worker crash.
};

/// One streamed per-method verdict record (the JSONL row's payload).
struct MethodVerdict {
  std::string Method;
  uint32_t Checks = 0;
  uint32_t Flagged = 0;
};

/// The complete certification result of one client.
struct ResultMsg {
  uint32_t Index = 0;
  std::string Name;
  /// The report exactly as a serial canvas_certify run would print it
  /// (CertificationReport::str()); the merger concatenates these.
  std::string ReportText;
  /// Parse/build diagnostics (worker stderr is reserved for incidents).
  std::string DiagText;
  uint8_t ParseFailed = 0; ///< Client did not parse/build: no verdicts.
  uint8_t Degraded = 0;    ///< Any check carries a degradation note.
  uint32_t Checks = 0;
  uint32_t Flagged = 0;
  uint32_t WorkerPid = 0;
  uint64_t Micros = 0; ///< Worker-side wall clock for this client.
  // Store accounting for the cross-shard reuse report.
  uint32_t StoreHits = 0;
  uint32_t StoreMisses = 0;
  uint32_t StoreRejected = 0;
  uint32_t StoreQuarantined = 0;
  uint32_t StoreWrites = 0;
  uint32_t StoreLockWaits = 0; ///< Contended store lock acquisitions.
  std::vector<MethodVerdict> Methods;
};

/// Serializes one frame (header + payload) onto \p Fd. False on a pipe
/// error (dead peer).
bool writeFrame(int Fd, MsgType Type, const std::vector<uint8_t> &Payload);

/// Reads one complete frame. Returns false with \p AtEof = true on a
/// clean EOF before any header byte (orderly close), and false with
/// \p Error set on torn frames, CRC mismatches, or malformed headers.
bool readFrame(int Fd, MsgType &Type, std::vector<uint8_t> &Payload,
               bool &AtEof, std::string &Error);

std::vector<uint8_t> encodeTask(const TaskMsg &T);
bool decodeTask(const std::vector<uint8_t> &Payload, TaskMsg &Out,
                std::string &Error);

std::vector<uint8_t> encodeResult(const ResultMsg &R);
bool decodeResult(const std::vector<uint8_t> &Payload, ResultMsg &Out,
                  std::string &Error);

} // namespace shard
} // namespace canvas

#endif // CANVAS_SHARD_PROTOCOL_H
