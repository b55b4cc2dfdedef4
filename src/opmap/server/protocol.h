#ifndef OPMAP_SERVER_PROTOCOL_H_
#define OPMAP_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "opmap/common/status.h"
#include "opmap/compare/comparator.h"
#include "opmap/cube/cube_store.h"
#include "opmap/gi/impressions.h"

namespace opmap::server {

// ---------------------------------------------------------------------------
// opmapd wire protocol (docs/SERVING.md).
//
// Both directions carry WAL-style frames (the exact layout of
// src/opmap/ingest/wal.h, reused so there is one CRC-framing discipline in
// the codebase):
//
//   payload_len u32 | request_id u64 | crc u32 | payload[payload_len]
//
// `crc` is CRC32C over the request_id field and the payload. The client
// picks request_id (monotonic per connection); the response echoes it.
//
// Request payload:   op u8     | op-specific body
// Response payload:  status u8 | body (op-specific on kOk, error body
//                    `code u8 | message string` otherwise)
//
// All body integers are little-endian via BinaryWriter/BinaryReader.
// A frame that fails length or CRC validation cannot be resynchronized
// (the stream position is untrusted), so the server answers with a
// kBadRequest error frame and closes the connection.
//
// Scheduling: clients may pipeline. The server answers every frame in
// the order it was received, but stateless ops (ping/schema/compare/
// all-pairs/gi/stats) of one connection may *execute* concurrently, up
// to the daemon's per-connection depth — the response stream never
// reveals the reordering. Session-bound ops (session/render) and kReload
// execute one at a time with the connection otherwise quiesced, so a
// client's request after its own reload sees the reloaded store. Other
// connections never wait for a reload. Blocking clients that wait for
// each response before sending the next are unaffected.
// ---------------------------------------------------------------------------

/// Frame header size; identical to kWalFrameHeaderBytes by construction.
inline constexpr size_t kFrameHeaderBytes = 16;

/// Default cap on a single request payload; longer length fields are
/// treated as corruption. Responses (rendered views, stats JSON) may be
/// larger; the client-side cap is kMaxResponseBytes.
inline constexpr uint32_t kMaxRequestBytes = 1u << 20;
inline constexpr uint32_t kMaxResponseBytes = 64u << 20;

enum class Op : uint8_t {
  kPing = 0,
  kSchema = 1,
  kCompare = 2,
  kAllPairs = 3,
  kGi = 4,
  kSession = 5,
  kRender = 6,
  kStats = 7,
  kReload = 8,
};

/// Short lowercase op name ("compare"), used in metric names and loadgen
/// reports; "unknown" for out-of-range bytes.
const char* OpName(Op op);
bool IsKnownOp(uint8_t op);

enum class RespStatus : uint8_t {
  kOk = 0,
  /// Shed by admission control; the request was not executed and can be
  /// retried after backoff.
  kRetryLater = 1,
  /// The request (frame, op, body, or arguments) was invalid; retrying
  /// the same bytes will fail again.
  kBadRequest = 2,
  /// The server failed executing a well-formed request (I/O, internal).
  kError = 3,
  /// The server is draining; the request was not executed.
  kShuttingDown = 4,
};

const char* RespStatusName(RespStatus status);

/// Encodes one frame ready to write (delegates to EncodeWalFrame).
std::string EncodeFrame(uint64_t request_id, const std::string& payload);

enum class FrameDecode {
  kFrame,     ///< one complete valid frame decoded
  kNeedMore,  ///< prefix of a plausible frame; read more bytes
  kCorrupt,   ///< length or CRC violation; the stream cannot be resynced
};

/// Decodes the first frame in `data`. On kFrame, fills id/payload and sets
/// `consumed` to the frame's byte size. On kCorrupt, `error` describes the
/// violation and `id` holds the (untrusted) id field when at least the
/// header was present, so a best-effort error response can echo it.
FrameDecode DecodeFrame(const char* data, size_t size, uint32_t max_payload,
                        uint64_t* id, std::string* payload, size_t* consumed,
                        std::string* error);

// --------------------------- request bodies --------------------------------

struct CompareRequest {
  int32_t attribute = -1;
  int32_t value_a = -1;
  int32_t value_b = -1;
  int32_t target_class = -1;
  int64_t min_population = 30;
};

struct AllPairsRequest {
  int32_t attribute = -1;
  int32_t target_class = -1;
  int64_t min_population = 30;
};

struct GiRequest {
  int32_t top_influence = 0;
  bool mine_interactions = false;
  int32_t top_interactions = 20;
};

enum class SessionVerb : uint8_t {
  kOpen = 0,
  kDrill = 1,
  kSlice = 2,
  kDice = 3,
  kRollUp = 4,
  kBack = 5,
  kReset = 6,
};

struct SessionRequest {
  SessionVerb verb = SessionVerb::kOpen;
  std::string attribute;               ///< unused by kBack/kReset
  std::vector<std::string> values;     ///< kSlice uses [0], kDice all
};

struct RenderRequest {
  int32_t max_rows = 30;
  int32_t bar_width = 30;
};

struct ReloadRequest {
  std::string path;  ///< empty = re-read the currently served file
};

/// Request payload = op byte + encoded body.
std::string EncodeRequest(Op op, const std::string& body);
std::string EncodeCompareRequest(const CompareRequest& req);
std::string EncodeAllPairsRequest(const AllPairsRequest& req);
std::string EncodeGiRequest(const GiRequest& req);
std::string EncodeSessionRequest(const SessionRequest& req);
std::string EncodeRenderRequest(const RenderRequest& req);
std::string EncodeReloadRequest(const ReloadRequest& req);

Result<CompareRequest> DecodeCompareRequest(const std::string& body);
Result<AllPairsRequest> DecodeAllPairsRequest(const std::string& body);
Result<GiRequest> DecodeGiRequest(const std::string& body);
Result<SessionRequest> DecodeSessionRequest(const std::string& body);
Result<RenderRequest> DecodeRenderRequest(const std::string& body);
Result<ReloadRequest> DecodeReloadRequest(const std::string& body);

// --------------------------- response bodies -------------------------------

/// Response payload = status byte + body.
std::string EncodeResponse(RespStatus status, const std::string& body);

/// Error body carried by non-OK responses.
std::string EncodeErrorBody(StatusCode code, const std::string& message);

/// Splits a response payload into status byte + body; fails on empty
/// payloads or unknown status bytes.
struct DecodedResponse {
  RespStatus status = RespStatus::kError;
  std::string body;
};
Result<DecodedResponse> DecodeResponse(const std::string& payload);

/// Reconstructs a Status from an error body (for client-side reporting).
/// Returns non-OK when `body` is not a well-formed error body; the
/// reconstructed server-side Status comes back through `decoded`.
Status DecodeErrorBody(const std::string& body, Status* decoded);

/// Deterministic binary serialization of query results. Field order is
/// fixed and every result-bearing field is included, so two byte-equal
/// encodings imply equal results — the server's responses are compared
/// byte-for-byte against direct QueryEngine calls in tests.
std::string EncodeComparisonResult(const ComparisonResult& result);
std::string EncodePairSummaries(const std::vector<PairSummary>& pairs);
std::string EncodeGeneralImpressions(const GeneralImpressions& gi);

/// Store/schema snapshot for clients (loadgen uses it to build its query
/// mix without sharing code with the server process).
struct SchemaInfo {
  int64_t num_records = 0;
  int32_t class_index = -1;
  uint64_t store_generation = 0;
  struct AttrInfo {
    std::string name;
    bool is_categorical = false;
    /// Whether the store materialized cubes for this attribute.
    bool materialized = false;
    std::vector<std::string> labels;
  };
  std::vector<AttrInfo> attributes;
};

std::string EncodeSchemaInfo(const CubeStore& store, uint64_t generation);
Result<SchemaInfo> DecodeSchemaInfo(const std::string& body);

/// Reload OK body: the new generation and record count.
struct ReloadInfo {
  uint64_t store_generation = 0;
  int64_t num_records = 0;
};
std::string EncodeReloadInfo(const ReloadInfo& info);
Result<ReloadInfo> DecodeReloadInfo(const std::string& body);

}  // namespace opmap::server

#endif  // OPMAP_SERVER_PROTOCOL_H_
