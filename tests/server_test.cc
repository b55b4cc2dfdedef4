// opmapd suite: wire-protocol framing, the serving daemon's event loop
// (admission control, per-connection ordering, hot reload, graceful
// drain), and the two acceptance properties of the serving change —
// protocol robustness (malformed bytes never crash the daemon or disturb
// other connections) and concurrent-session correctness (responses are
// byte-identical to direct QueryEngine calls, for any client count,
// --mmap=on|off, cache on or off).

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "opmap/common/io.h"
#include "opmap/core/session.h"
#include "opmap/cube/cube_store.h"
#include "opmap/data/call_log.h"
#include "opmap/ingest/ingester.h"
#include "opmap/server/client.h"
#include "opmap/server/protocol.h"
#include "opmap/server/server.h"
#include "test_util.h"

namespace opmap {
namespace {

using server::AllPairsRequest;
using server::Client;
using server::CompareRequest;
using server::DecodeFrame;
using server::EncodeFrame;
using server::EncodeRequest;
using server::FrameDecode;
using server::GiRequest;
using server::Op;
using server::ReloadRequest;
using server::RenderRequest;
using server::Reply;
using server::RespStatus;
using server::SessionRequest;
using server::SessionVerb;

// Deterministic fuzz bytes (xorshift64*), seeded per test.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
  }
};

std::string WriteCubes(const std::string& name, int64_t records = 3000) {
  CallLogConfig config;
  config.num_records = records;
  config.num_attributes = 6;
  config.values_per_attribute = 4;
  config.num_phone_models = 5;
  config.seed = 11;
  auto generator = CallLogGenerator::Make(config);
  EXPECT_TRUE(generator.ok()) << generator.status().ToString();
  const Dataset data = generator->Generate();
  auto built = CubeBuilder::FromDataset(data);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_OK(built->SaveToFile(path));
  return path;
}

std::string SocketAddr(const std::string& name) {
  return "unix:" + ::testing::TempDir() + "/" + name;
}

// Runs Serve() on a background thread; Stop() drains and asserts the
// loop exited cleanly.
class TestServer {
 public:
  static std::unique_ptr<TestServer> Start(server::ServerOptions options) {
    auto started = server::Server::Start(options);
    if (!started.ok()) {
      ADD_FAILURE() << started.status().ToString();
      return nullptr;
    }
    std::unique_ptr<TestServer> ts(new TestServer());
    ts->server_ = std::move(started).MoveValue();
    ts->thread_ = std::thread(
        [ts_ptr = ts.get()] { ts_ptr->serve_status_ = ts_ptr->server_->Serve(); });
    return ts;
  }

  ~TestServer() { Stop(); }

  void Stop() {
    if (server_ != nullptr && thread_.joinable()) {
      server_->Shutdown();
      thread_.join();
      EXPECT_OK(serve_status_);
    }
  }

  const std::string& address() const { return server_->address(); }
  server::ServerStats stats() const { return server_->stats(); }
  server::Server* server() const { return server_.get(); }

 private:
  TestServer() = default;
  std::unique_ptr<server::Server> server_;
  std::thread thread_;
  Status serve_status_;
};

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(Protocol, FrameRoundTripAndIncrementalDecode) {
  const std::string payload = "hello frames";
  const std::string frame = EncodeFrame(42, payload);
  ASSERT_EQ(frame.size(), server::kFrameHeaderBytes + payload.size());

  uint64_t id = 0;
  std::string decoded;
  size_t consumed = 0;
  std::string error;
  // Every strict prefix is kNeedMore, never an error.
  for (size_t n = 0; n < frame.size(); ++n) {
    EXPECT_EQ(DecodeFrame(frame.data(), n, 1 << 20, &id, &decoded, &consumed,
                          &error),
              FrameDecode::kNeedMore)
        << "prefix length " << n;
  }
  ASSERT_EQ(DecodeFrame(frame.data(), frame.size(), 1 << 20, &id, &decoded,
                        &consumed, &error),
            FrameDecode::kFrame);
  EXPECT_EQ(id, 42u);
  EXPECT_EQ(decoded, payload);
  EXPECT_EQ(consumed, frame.size());
}

TEST(Protocol, BitFlipsAndOversizeLengthsAreCorrupt) {
  const std::string frame = EncodeFrame(7, "payload bytes");
  uint64_t id = 0;
  std::string payload;
  size_t consumed = 0;
  std::string error;
  // Any single-bit flip anywhere in the frame must be rejected.
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    std::string bad = frame;
    bad[byte] = static_cast<char>(bad[byte] ^ 0x10);
    const FrameDecode rc = DecodeFrame(bad.data(), bad.size(), 1 << 20, &id,
                                       &payload, &consumed, &error);
    // A flip in the length field may also turn the frame into a plausible
    // longer one (kNeedMore) — but never into a *valid* frame.
    EXPECT_NE(rc, FrameDecode::kFrame) << "flipped byte " << byte;
  }
  // Declared length beyond the cap is corruption even before the bytes
  // arrive (anti-allocation guard).
  const std::string big = EncodeFrame(9, std::string(2048, 'x'));
  EXPECT_EQ(DecodeFrame(big.data(), big.size(), 1024, &id, &payload,
                        &consumed, &error),
            FrameDecode::kCorrupt);
  EXPECT_EQ(id, 9u);  // best-effort id echo for the error response
}

TEST(Protocol, RequestBodiesRoundTrip) {
  CompareRequest cmp;
  cmp.attribute = 3;
  cmp.value_a = 0;
  cmp.value_b = 2;
  cmp.target_class = 1;
  cmp.min_population = 5;
  ASSERT_OK_AND_ASSIGN(CompareRequest cmp2, server::DecodeCompareRequest(
                                                server::EncodeCompareRequest(cmp)));
  EXPECT_EQ(cmp2.attribute, 3);
  EXPECT_EQ(cmp2.value_b, 2);
  EXPECT_EQ(cmp2.min_population, 5);

  SessionRequest ses;
  ses.verb = SessionVerb::kDice;
  ses.attribute = "PhoneModel";
  ses.values = {"ph1", "ph2"};
  ASSERT_OK_AND_ASSIGN(SessionRequest ses2, server::DecodeSessionRequest(
                                                server::EncodeSessionRequest(ses)));
  EXPECT_EQ(ses2.verb, SessionVerb::kDice);
  EXPECT_EQ(ses2.attribute, "PhoneModel");
  ASSERT_EQ(ses2.values.size(), 2u);
  EXPECT_EQ(ses2.values[1], "ph2");

  // Trailing junk after a well-formed body is rejected, not ignored.
  EXPECT_FALSE(
      server::DecodeGiRequest(server::EncodeGiRequest(GiRequest{}) + "x").ok());
}

// ---------------------------------------------------------------------------
// Serving basics over both transports
// ---------------------------------------------------------------------------

TEST(Server, ServesPingSchemaAndCompareOverUnixSocket) {
  server::ServerOptions options;
  options.cubes_path = WriteCubes("srv_basic.opmc");
  options.listen = SocketAddr("srv_basic.sock");
  auto ts = TestServer::Start(options);
  ASSERT_NE(ts, nullptr);

  ASSERT_OK_AND_ASSIGN(auto client, Client::Connect(ts->address()));
  ASSERT_OK_AND_ASSIGN(Reply ping, client->Ping());
  EXPECT_TRUE(ping.ok());

  ASSERT_OK_AND_ASSIGN(Reply schema_reply, client->Call(Op::kSchema));
  ASSERT_TRUE(schema_reply.ok()) << schema_reply.ErrorText();
  ASSERT_OK_AND_ASSIGN(server::SchemaInfo schema,
                       server::DecodeSchemaInfo(schema_reply.body));
  EXPECT_EQ(schema.num_records, 3000);
  EXPECT_EQ(schema.store_generation, 1u);
  EXPECT_GT(schema.attributes.size(), 1u);

  CompareRequest cmp;
  cmp.attribute = 0;
  cmp.value_a = 0;
  cmp.value_b = 1;
  cmp.target_class = 0;
  ASSERT_OK_AND_ASSIGN(Reply compare, client->Compare(cmp));
  ASSERT_TRUE(compare.ok()) << compare.ErrorText();
  EXPECT_FALSE(compare.body.empty());

  // Bad arguments come back as kBadRequest with the engine's message,
  // and the connection stays usable.
  CompareRequest bad = cmp;
  bad.attribute = 99;
  ASSERT_OK_AND_ASSIGN(Reply rejected, client->Compare(bad));
  EXPECT_EQ(rejected.status, RespStatus::kBadRequest);
  ASSERT_OK_AND_ASSIGN(Reply ping2, client->Ping());
  EXPECT_TRUE(ping2.ok());
}

TEST(Server, ServesOverTcpLoopbackWithOsAssignedPort) {
  server::ServerOptions options;
  options.cubes_path = WriteCubes("srv_tcp.opmc");
  options.listen = "127.0.0.1:0";
  auto ts = TestServer::Start(options);
  ASSERT_NE(ts, nullptr);
  // Port 0 resolved to a real port in address().
  EXPECT_EQ(ts->address().rfind("127.0.0.1:", 0), 0u);
  EXPECT_NE(ts->address(), "127.0.0.1:0");

  ASSERT_OK_AND_ASSIGN(auto client, Client::Connect(ts->address()));
  ASSERT_OK_AND_ASSIGN(Reply ping, client->Ping());
  EXPECT_TRUE(ping.ok());
  ASSERT_OK_AND_ASSIGN(Reply stats, client->Stats());
  EXPECT_TRUE(stats.ok());
  EXPECT_NE(stats.body.find("server.requests"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrent-session correctness (acceptance criterion)
// ---------------------------------------------------------------------------

TEST(ServerEquivalence, ConcurrentClientsByteIdenticalToDirectEngine) {
  const std::string cubes = WriteCubes("srv_equiv.opmc");

  // Expected bytes from a direct, uncached, eager QueryEngine — the
  // reference the daemon must reproduce exactly.
  CubeLoadOptions eager;
  eager.use_mmap = false;
  ASSERT_OK_AND_ASSIGN(CubeStore store,
                       CubeStore::LoadFromFile(cubes, nullptr, eager));
  QueryEngine engine(&store, /*cache_bytes=*/0);
  const std::string attr0 = store.schema().attribute(0).name();

  std::vector<CompareRequest> compare_reqs;
  for (int attr = 0; attr < 3; ++attr) {
    CompareRequest cmp;
    cmp.attribute = attr;
    cmp.value_a = 0;
    cmp.value_b = 1;
    cmp.target_class = 0;
    compare_reqs.push_back(cmp);
  }
  std::vector<std::string> compare_expected;
  for (const CompareRequest& req : compare_reqs) {
    ComparisonSpec spec;
    spec.attribute = req.attribute;
    spec.value_a = req.value_a;
    spec.value_b = req.value_b;
    spec.target_class = req.target_class;
    spec.min_population = req.min_population;
    ASSERT_OK_AND_ASSIGN(auto result, engine.Compare(spec));
    compare_expected.push_back(server::EncodeComparisonResult(*result));
  }
  ASSERT_OK_AND_ASSIGN(auto pairs, engine.CompareAllPairs(0, 0, 30));
  const std::string pairs_expected = server::EncodePairSummaries(pairs);
  GiOptions gi_options;
  gi_options.top_influence = 5;
  ASSERT_OK_AND_ASSIGN(auto gi, engine.Gi(gi_options));
  const std::string gi_expected = server::EncodeGeneralImpressions(*gi);
  ExplorationSession ref_session(&store);
  ASSERT_OK(ref_session.OpenAttribute(attr0));
  const std::string path_expected = ref_session.PathString();
  ASSERT_OK_AND_ASSIGN(std::string render_expected,
                       ref_session.Render(SessionRenderOptions{}));

  int config = 0;
  for (const bool use_mmap : {true, false}) {
    for (const bool cached : {true, false}) {
      server::ServerOptions options;
      options.cubes_path = cubes;
      options.listen =
          SocketAddr("srv_equiv_" + std::to_string(config++) + ".sock");
      options.use_mmap = use_mmap;
      options.cache_bytes = cached ? QueryCache::kDefaultMaxBytes : 0;
      options.workers = 2;
      auto ts = TestServer::Start(options);
      ASSERT_NE(ts, nullptr);

      constexpr int kClients = 3;
      std::vector<std::string> failures(kClients);
      std::vector<std::thread> threads;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          auto fail = [&](const std::string& what) {
            if (failures[c].empty()) failures[c] = what;
          };
          auto client_or = Client::Connect(ts->address());
          if (!client_or.ok()) return fail(client_or.status().ToString());
          std::unique_ptr<Client> client = std::move(client_or).MoveValue();
          // Two passes: the second hits the daemon's warm cache (when
          // enabled) and must still be byte-identical.
          for (int pass = 0; pass < 2; ++pass) {
            for (size_t i = 0; i < compare_reqs.size(); ++i) {
              auto reply = client->Compare(compare_reqs[i]);
              if (!reply.ok()) return fail(reply.status().ToString());
              if (!reply->ok()) return fail(reply->ErrorText());
              if (reply->body != compare_expected[i]) {
                return fail("compare bytes diverged");
              }
            }
            auto pairs_reply = client->AllPairs(AllPairsRequest{0, 0, 30});
            if (!pairs_reply.ok()) {
              return fail(pairs_reply.status().ToString());
            }
            if (pairs_reply->body != pairs_expected) {
              return fail("all-pairs bytes diverged");
            }
            GiRequest gi_req;
            gi_req.top_influence = 5;
            auto gi_reply = client->Gi(gi_req);
            if (!gi_reply.ok()) return fail(gi_reply.status().ToString());
            if (gi_reply->body != gi_expected) {
              return fail("gi bytes diverged");
            }
            SessionRequest open;
            open.verb = SessionVerb::kOpen;
            open.attribute = attr0;
            auto open_reply = client->Session(open);
            if (!open_reply.ok()) {
              return fail(open_reply.status().ToString());
            }
            if (open_reply->body != path_expected) {
              return fail("session path diverged");
            }
            auto render_reply = client->Render(RenderRequest{});
            if (!render_reply.ok()) {
              return fail(render_reply.status().ToString());
            }
            if (render_reply->body != render_expected) {
              return fail("render bytes diverged");
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
      for (int c = 0; c < kClients; ++c) {
        EXPECT_EQ(failures[c], "")
            << "client " << c << " (mmap=" << use_mmap
            << " cache=" << cached << ")";
      }
      ts->Stop();
      EXPECT_EQ(ts->stats().protocol_errors, 0);
      EXPECT_EQ(ts->stats().responses_error, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Protocol robustness against a live daemon (acceptance criterion)
// ---------------------------------------------------------------------------

TEST(ServerRobustness, MalformedFramesGetErrorsOrCloseNeverCrash) {
  server::ServerOptions options;
  options.cubes_path = WriteCubes("srv_robust.opmc");
  options.listen = SocketAddr("srv_robust.sock");
  options.max_request_bytes = 4096;
  auto ts = TestServer::Start(options);
  ASSERT_NE(ts, nullptr);

  // A long-lived healthy connection that must stay unaffected throughout.
  ASSERT_OK_AND_ASSIGN(auto healthy, Client::Connect(ts->address()));
  ASSERT_OK_AND_ASSIGN(Reply ok0, healthy->Ping());
  EXPECT_TRUE(ok0.ok());

  // Bit-flipped payload: CRC mismatch => kBadRequest, then the server
  // closes (the stream cannot be resynced).
  {
    ASSERT_OK_AND_ASSIGN(auto client, Client::Connect(ts->address(), 5000));
    std::string frame = EncodeFrame(1, EncodeRequest(Op::kPing, ""));
    frame.back() = static_cast<char>(frame.back() ^ 0x01);
    ASSERT_OK(client->SendRaw(frame));
    ASSERT_OK_AND_ASSIGN(Reply reply, client->ReadReply());
    EXPECT_EQ(reply.status, RespStatus::kBadRequest);
    EXPECT_FALSE(client->ReadReply().ok());  // closed after the error
  }

  // Oversized declared length: rejected from the header alone.
  {
    ASSERT_OK_AND_ASSIGN(auto client, Client::Connect(ts->address(), 5000));
    ASSERT_OK(client->SendRaw(EncodeFrame(2, std::string(8192, 'x'))));
    ASSERT_OK_AND_ASSIGN(Reply reply, client->ReadReply());
    EXPECT_EQ(reply.status, RespStatus::kBadRequest);
    EXPECT_EQ(reply.request_id, 2u);  // id echoed from the readable header
    EXPECT_FALSE(client->ReadReply().ok());
  }

  // Truncated frame then disconnect: the server just sweeps the
  // connection; nothing to answer.
  {
    ASSERT_OK_AND_ASSIGN(auto client, Client::Connect(ts->address(), 5000));
    const std::string frame = EncodeFrame(3, EncodeRequest(Op::kPing, ""));
    ASSERT_OK(client->SendRaw(frame.substr(0, frame.size() - 3)));
  }

  // Valid frame, unknown op byte / empty payload: clean kBadRequest, the
  // connection survives (framing was intact).
  {
    ASSERT_OK_AND_ASSIGN(auto client, Client::Connect(ts->address(), 5000));
    ASSERT_OK(client->SendRaw(EncodeFrame(4, std::string(1, '\xee'))));
    ASSERT_OK_AND_ASSIGN(Reply unknown_op, client->ReadReply());
    EXPECT_EQ(unknown_op.status, RespStatus::kBadRequest);
    ASSERT_OK(client->SendRaw(EncodeFrame(5, "")));
    ASSERT_OK_AND_ASSIGN(Reply empty, client->ReadReply());
    EXPECT_EQ(empty.status, RespStatus::kBadRequest);
    // Well-formed frame with a corrupt body: error, connection survives.
    ASSERT_OK(client->SendRaw(
        EncodeFrame(6, EncodeRequest(Op::kCompare, "short"))));
    ASSERT_OK_AND_ASSIGN(Reply bad_body, client->ReadReply());
    EXPECT_EQ(bad_body.status, RespStatus::kBadRequest);
    ASSERT_OK(client->SendRaw(EncodeFrame(7, EncodeRequest(Op::kPing, ""))));
    ASSERT_OK_AND_ASSIGN(Reply still_alive, client->ReadReply());
    EXPECT_TRUE(still_alive.ok());
  }

  // Deterministic garbage fuzzing: every outcome must be an error reply,
  // a clean close, or a read timeout (plausible frame prefix) — and the
  // healthy connection keeps working after every round.
  Rng rng(0xf00dcafe);
  for (int round = 0; round < 30; ++round) {
    ASSERT_OK_AND_ASSIGN(auto client, Client::Connect(ts->address(), 200));
    const size_t len = 1 + rng.Next() % 64;
    std::string garbage(len, '\0');
    for (char& ch : garbage) ch = static_cast<char>(rng.Next());
    ASSERT_OK(client->SendRaw(garbage));
    (void)client->ReadReply();  // error reply, close, or timeout — all fine
    ASSERT_OK_AND_ASSIGN(Reply alive, healthy->Ping());
    ASSERT_TRUE(alive.ok()) << "healthy connection broken in round " << round;
  }

  ASSERT_OK_AND_ASSIGN(Reply final_ping, healthy->Ping());
  EXPECT_TRUE(final_ping.ok());
  ts->Stop();
  EXPECT_GT(ts->stats().protocol_errors, 0);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(ServerAdmission, PipelineBeyondPendingCapShedsWithRetryLater) {
  server::ServerOptions options;
  options.cubes_path = WriteCubes("srv_shed.opmc");
  options.listen = SocketAddr("srv_shed.sock");
  options.max_pending_per_connection = 1;
  options.workers = 1;
  auto ts = TestServer::Start(options);
  ASSERT_NE(ts, nullptr);

  ASSERT_OK_AND_ASSIGN(auto client, Client::Connect(ts->address()));
  // Fire 20 pipelined GI requests in one burst without reading replies:
  // one executes, one queues, the overflow is shed with RETRY_LATER —
  // never silently dropped, never unboundedly queued.
  constexpr int kBurst = 20;
  GiRequest gi;
  gi.top_influence = 5;
  std::string burst;
  for (int i = 1; i <= kBurst; ++i) {
    burst += EncodeFrame(static_cast<uint64_t>(i),
                         EncodeRequest(Op::kGi, server::EncodeGiRequest(gi)));
  }
  ASSERT_OK(client->SendRaw(burst));

  std::map<uint64_t, RespStatus> replies;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_OK_AND_ASSIGN(Reply reply, client->ReadReply());
    EXPECT_TRUE(replies.emplace(reply.request_id, reply.status).second)
        << "duplicate response id " << reply.request_id;
  }
  int ok = 0;
  int shed = 0;
  for (const auto& [id, status] : replies) {
    EXPECT_GE(id, 1u);
    EXPECT_LE(id, static_cast<uint64_t>(kBurst));
    if (status == RespStatus::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(status, RespStatus::kRetryLater);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(ok, 2);    // the executing and queued requests completed
  EXPECT_GE(shed, 1);  // the burst overflowed the 1-deep pipeline

  // The connection is fully usable after shedding.
  ASSERT_OK_AND_ASSIGN(Reply after, client->Ping());
  EXPECT_TRUE(after.ok());
  ts->Stop();
  EXPECT_EQ(ts->stats().shed_retry_later, shed);
}

// ---------------------------------------------------------------------------
// Hot reload
// ---------------------------------------------------------------------------

TEST(ServerReload, SwapsStoreResetsSessionsAndSurvivesBadPaths) {
  const std::string cubes = WriteCubes("srv_reload.opmc");
  server::ServerOptions options;
  options.cubes_path = cubes;
  options.listen = SocketAddr("srv_reload.sock");
  auto ts = TestServer::Start(options);
  ASSERT_NE(ts, nullptr);

  ASSERT_OK_AND_ASSIGN(auto client, Client::Connect(ts->address()));
  ASSERT_OK_AND_ASSIGN(Reply schema_before, client->Call(Op::kSchema));
  ASSERT_OK_AND_ASSIGN(server::SchemaInfo info_before,
                       server::DecodeSchemaInfo(schema_before.body));
  EXPECT_EQ(info_before.store_generation, 1u);

  SessionRequest open;
  open.verb = SessionVerb::kOpen;
  open.attribute = info_before.attributes[0].name;
  ASSERT_OK_AND_ASSIGN(Reply opened, client->Session(open));
  ASSERT_TRUE(opened.ok()) << opened.ErrorText();
  ASSERT_OK_AND_ASSIGN(Reply rendered, client->Render(RenderRequest{}));
  ASSERT_TRUE(rendered.ok()) << rendered.ErrorText();

  CompareRequest cmp;
  cmp.attribute = 0;
  cmp.value_a = 0;
  cmp.value_b = 1;
  cmp.target_class = 0;
  ASSERT_OK_AND_ASSIGN(Reply compare_before, client->Compare(cmp));
  ASSERT_TRUE(compare_before.ok());

  // Reload the same file: new generation, sessions dropped, results
  // unchanged (same data).
  ASSERT_OK_AND_ASSIGN(Reply reloaded, client->Reload(ReloadRequest{}));
  ASSERT_TRUE(reloaded.ok()) << reloaded.ErrorText();
  ASSERT_OK_AND_ASSIGN(server::ReloadInfo reload_info,
                       server::DecodeReloadInfo(reloaded.body));
  EXPECT_EQ(reload_info.store_generation, 2u);
  EXPECT_EQ(reload_info.num_records, 3000);

  ASSERT_OK_AND_ASSIGN(Reply render_after, client->Render(RenderRequest{}));
  EXPECT_EQ(render_after.status, RespStatus::kBadRequest)
      << "session must not survive a reload";
  ASSERT_OK_AND_ASSIGN(Reply compare_after, client->Compare(cmp));
  ASSERT_TRUE(compare_after.ok());
  EXPECT_EQ(compare_after.body, compare_before.body);

  // A reload pointing at a missing file fails loudly and changes nothing.
  ReloadRequest bad;
  bad.path = ::testing::TempDir() + "/no_such_file.opmc";
  ASSERT_OK_AND_ASSIGN(Reply failed, client->Reload(bad));
  EXPECT_FALSE(failed.ok());
  ASSERT_OK_AND_ASSIGN(Reply schema_after, client->Call(Op::kSchema));
  ASSERT_OK_AND_ASSIGN(server::SchemaInfo info_after,
                       server::DecodeSchemaInfo(schema_after.body));
  EXPECT_EQ(info_after.store_generation, 2u);
  EXPECT_EQ(info_after.num_records, 3000);

  ts->Stop();
  EXPECT_EQ(ts->stats().reloads, 1);
  EXPECT_EQ(ts->stats().reload_failures, 1);
}

// ---------------------------------------------------------------------------
// Lifecycle: mid-request disconnect and graceful drain
// ---------------------------------------------------------------------------

TEST(ServerLifecycle, DisconnectDuringExecutionAndDrainAreClean) {
  server::ServerOptions options;
  options.cubes_path = WriteCubes("srv_life.opmc");
  options.listen = SocketAddr("srv_life.sock");
  options.workers = 1;
  auto ts = TestServer::Start(options);
  ASSERT_NE(ts, nullptr);

  // Fire a request and vanish without reading the reply: the worker's
  // result has no peer to go to; the daemon must shrug it off.
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK_AND_ASSIGN(auto ghost, Client::Connect(ts->address()));
    GiRequest gi;
    gi.top_influence = 5;
    ASSERT_OK(ghost->SendRaw(EncodeFrame(
        1, EncodeRequest(Op::kGi, server::EncodeGiRequest(gi)))));
    // ghost goes out of scope: fd closed with the request in flight
  }

  ASSERT_OK_AND_ASSIGN(auto client, Client::Connect(ts->address()));
  ASSERT_OK_AND_ASSIGN(Reply ping, client->Ping());
  EXPECT_TRUE(ping.ok());

  // Stop() drains: Serve() must return OK (asserted in the helper) with
  // every in-flight request finished.
  ts->Stop();
  EXPECT_GE(ts->stats().requests, 6);
}

// ---------------------------------------------------------------------------
// Multiple loops (acceptance criterion: byte-identical for any --loops,
// over both transports)
// ---------------------------------------------------------------------------

TEST(ServerMultiLoop, ByteIdenticalAcrossLoopCountsAndTransports) {
  const std::string cubes = WriteCubes("srv_loops.opmc");

  CubeLoadOptions eager;
  eager.use_mmap = false;
  ASSERT_OK_AND_ASSIGN(CubeStore store,
                       CubeStore::LoadFromFile(cubes, nullptr, eager));
  QueryEngine engine(&store, /*cache_bytes=*/0);
  std::vector<CompareRequest> compare_reqs;
  std::vector<std::string> compare_expected;
  for (int attr = 0; attr < 3; ++attr) {
    CompareRequest cmp;
    cmp.attribute = attr;
    cmp.value_a = 0;
    cmp.value_b = 1;
    cmp.target_class = 0;
    compare_reqs.push_back(cmp);
    ComparisonSpec spec;
    spec.attribute = cmp.attribute;
    spec.value_a = cmp.value_a;
    spec.value_b = cmp.value_b;
    spec.target_class = cmp.target_class;
    spec.min_population = cmp.min_population;
    ASSERT_OK_AND_ASSIGN(auto result, engine.Compare(spec));
    compare_expected.push_back(server::EncodeComparisonResult(*result));
  }
  GiOptions gi_options;
  gi_options.top_influence = 5;
  ASSERT_OK_AND_ASSIGN(auto gi, engine.Gi(gi_options));
  const std::string gi_expected = server::EncodeGeneralImpressions(*gi);

  int config = 0;
  for (const int loops : {2, 3}) {
    for (const bool tcp : {false, true}) {
      server::ServerOptions options;
      options.cubes_path = cubes;
      options.listen =
          tcp ? std::string("127.0.0.1:0")
              : SocketAddr("srv_loops_" + std::to_string(config) + ".sock");
      ++config;
      options.loops = loops;
      options.workers = 2;
      auto ts = TestServer::Start(options);
      ASSERT_NE(ts, nullptr);
      EXPECT_EQ(ts->server()->loops(), loops);

      // More clients than loops, so with loop 0 dealing connections
      // round-robin every loop serves at least one.
      constexpr int kClients = 4;
      std::vector<std::string> failures(kClients);
      std::vector<std::thread> threads;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          auto fail = [&](const std::string& what) {
            if (failures[c].empty()) failures[c] = what;
          };
          auto client_or = Client::Connect(ts->address());
          if (!client_or.ok()) return fail(client_or.status().ToString());
          std::unique_ptr<Client> client = std::move(client_or).MoveValue();
          for (int pass = 0; pass < 2; ++pass) {
            for (size_t i = 0; i < compare_reqs.size(); ++i) {
              auto reply = client->Compare(compare_reqs[i]);
              if (!reply.ok()) return fail(reply.status().ToString());
              if (!reply->ok()) return fail(reply->ErrorText());
              if (reply->body != compare_expected[i]) {
                return fail("compare bytes diverged");
              }
            }
            GiRequest gi_req;
            gi_req.top_influence = 5;
            auto gi_reply = client->Gi(gi_req);
            if (!gi_reply.ok()) return fail(gi_reply.status().ToString());
            if (gi_reply->body != gi_expected) {
              return fail("gi bytes diverged");
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
      for (int c = 0; c < kClients; ++c) {
        EXPECT_EQ(failures[c], "")
            << "client " << c << " (loops=" << loops << " tcp=" << tcp << ")";
      }
      ts->Stop();
      const server::ServerStats stats = ts->stats();
      EXPECT_EQ(stats.protocol_errors, 0);
      EXPECT_EQ(stats.responses_error, 0);
      EXPECT_GE(stats.connections_accepted, kClients);
    }
  }
}

// ---------------------------------------------------------------------------
// Pipelined execution: responses in request order under fuzzed op mixes
// ---------------------------------------------------------------------------

TEST(ServerPipeline, FuzzedStatelessBurstsReplyInExactRequestOrder) {
  server::ServerOptions options;
  options.cubes_path = WriteCubes("srv_pipe.opmc");
  options.listen = SocketAddr("srv_pipe.sock");
  options.loops = 2;
  options.workers = 4;
  options.max_pending_per_connection = 16;
  auto ts = TestServer::Start(options);
  ASSERT_NE(ts, nullptr);

  // Reference bodies, fetched once over a plain blocking connection;
  // every op here is deterministic (schema embeds the fixed generation).
  CompareRequest cmp;
  cmp.attribute = 0;
  cmp.value_a = 0;
  cmp.value_b = 1;
  cmp.target_class = 0;
  GiRequest gi;
  gi.top_influence = 5;
  std::map<uint8_t, std::string> payloads;
  payloads[static_cast<uint8_t>(Op::kPing)] = EncodeRequest(Op::kPing, "");
  payloads[static_cast<uint8_t>(Op::kSchema)] = EncodeRequest(Op::kSchema, "");
  payloads[static_cast<uint8_t>(Op::kCompare)] =
      EncodeRequest(Op::kCompare, server::EncodeCompareRequest(cmp));
  payloads[static_cast<uint8_t>(Op::kGi)] =
      EncodeRequest(Op::kGi, server::EncodeGiRequest(gi));
  std::map<uint8_t, std::string> expected;
  {
    ASSERT_OK_AND_ASSIGN(auto probe, Client::Connect(ts->address()));
    for (const auto& [op, payload] : payloads) {
      ASSERT_OK(probe->SendRaw(EncodeFrame(1000 + op, payload)));
      ASSERT_OK_AND_ASSIGN(Reply reply, probe->ReadReply());
      ASSERT_TRUE(reply.ok()) << reply.ErrorText();
      expected[op] = reply.body;
    }
  }

  // Fuzzed bursts: 12 pipelined frames of a random op mix, fired without
  // reading. With workers=4 the stateless ops execute concurrently and
  // finish out of order; the wire must still deliver request order with
  // the exact blocking-mode bytes.
  const std::vector<uint8_t> ops = {
      static_cast<uint8_t>(Op::kPing), static_cast<uint8_t>(Op::kSchema),
      static_cast<uint8_t>(Op::kCompare), static_cast<uint8_t>(Op::kGi)};
  Rng rng(0x9199e11fe5eedull);
  ASSERT_OK_AND_ASSIGN(auto client, Client::Connect(ts->address()));
  for (int round = 0; round < 8; ++round) {
    constexpr int kBurst = 12;
    std::string burst;
    std::vector<uint64_t> sent_ids;
    std::vector<uint8_t> sent_ops;
    for (int i = 0; i < kBurst; ++i) {
      const uint8_t op = ops[rng.Next() % ops.size()];
      const uint64_t id = static_cast<uint64_t>(round) * 100 + i + 1;
      burst += EncodeFrame(id, payloads[op]);
      sent_ids.push_back(id);
      sent_ops.push_back(op);
    }
    ASSERT_OK(client->SendRaw(burst));
    for (int i = 0; i < kBurst; ++i) {
      ASSERT_OK_AND_ASSIGN(Reply reply, client->ReadReply());
      ASSERT_EQ(reply.request_id, sent_ids[static_cast<size_t>(i)])
          << "round " << round << ": response " << i
          << " out of request order";
      ASSERT_TRUE(reply.ok()) << reply.ErrorText();
      EXPECT_EQ(reply.body, expected[sent_ops[static_cast<size_t>(i)]])
          << "round " << round << ": body diverged at position " << i;
    }
  }
  ts->Stop();
  EXPECT_EQ(ts->stats().shed_retry_later, 0);
  EXPECT_EQ(ts->stats().responses_error, 0);
}

// ---------------------------------------------------------------------------
// Reload racing queries across loops
// ---------------------------------------------------------------------------

TEST(ServerReloadRace, ConcurrentReloadsAndComparesStayConsistent) {
  const std::string cubes = WriteCubes("srv_reload_race.opmc");
  server::ServerOptions options;
  options.cubes_path = cubes;
  options.listen = SocketAddr("srv_reload_race.sock");
  options.loops = 3;
  options.workers = 4;
  auto ts = TestServer::Start(options);
  ASSERT_NE(ts, nullptr);

  CompareRequest cmp;
  cmp.attribute = 0;
  cmp.value_a = 0;
  cmp.value_b = 1;
  cmp.target_class = 0;
  std::string compare_expected;
  {
    ASSERT_OK_AND_ASSIGN(auto probe, Client::Connect(ts->address()));
    ASSERT_OK_AND_ASSIGN(Reply reply, probe->Compare(cmp));
    ASSERT_TRUE(reply.ok()) << reply.ErrorText();
    compare_expected = reply.body;
  }

  // Reloads pin nothing and shed nothing: every compare comes back OK
  // with the same bytes (reloads re-read the same file), and every one of
  // the concurrent reloads succeeds, queued behind the others.
  constexpr int kComparers = 3;
  constexpr int kReloaders = 2;
  std::vector<std::string> failures(kComparers + kReloaders);
  std::vector<std::thread> threads;
  for (int c = 0; c < kComparers; ++c) {
    threads.emplace_back([&, c] {
      auto fail = [&](const std::string& what) {
        if (failures[c].empty()) failures[c] = what;
      };
      auto client_or = Client::Connect(ts->address());
      if (!client_or.ok()) return fail(client_or.status().ToString());
      std::unique_ptr<Client> client = std::move(client_or).MoveValue();
      for (int i = 0; i < 40; ++i) {
        auto reply = client->Compare(cmp);
        if (!reply.ok()) return fail(reply.status().ToString());
        if (!reply->ok()) return fail(reply->ErrorText());
        if (reply->body != compare_expected) {
          return fail("compare bytes diverged during reload race");
        }
      }
    });
  }
  for (int r = 0; r < kReloaders; ++r) {
    threads.emplace_back([&, r] {
      auto fail = [&](const std::string& what) {
        if (failures[kComparers + r].empty()) {
          failures[kComparers + r] = what;
        }
      };
      auto client_or = Client::Connect(ts->address());
      if (!client_or.ok()) return fail(client_or.status().ToString());
      std::unique_ptr<Client> client = std::move(client_or).MoveValue();
      for (int i = 0; i < 5; ++i) {
        auto reply = client->Reload(ReloadRequest{});
        if (!reply.ok()) return fail(reply.status().ToString());
        if (!reply->ok()) return fail(reply->ErrorText());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < failures.size(); ++i) {
    EXPECT_EQ(failures[i], "") << "thread " << i;
  }

  ASSERT_OK_AND_ASSIGN(auto client, Client::Connect(ts->address()));
  ASSERT_OK_AND_ASSIGN(Reply schema_reply, client->Call(Op::kSchema));
  ASSERT_TRUE(schema_reply.ok()) << schema_reply.ErrorText();
  ASSERT_OK_AND_ASSIGN(server::SchemaInfo schema,
                       server::DecodeSchemaInfo(schema_reply.body));
  EXPECT_EQ(schema.store_generation, 1u + kReloaders * 5);
  ts->Stop();
  EXPECT_EQ(ts->stats().reloads, kReloaders * 5);
  EXPECT_EQ(ts->stats().reload_failures, 0);
  EXPECT_EQ(ts->stats().shed_retry_later, 0);
}

// ---------------------------------------------------------------------------
// Reload under pipelined load: properties over seeded schedules
// ---------------------------------------------------------------------------

// One client reloads two containers with different counts, alternately,
// while three others pipeline SCHEMA/COMPARE bursts. For every seed:
//  - the generation one connection sees never decreases;
//  - every compare body is one container's oracle bytes (never an error or
//    a shed), and between two schema replies naming the same generation it
//    is the bytes of that generation's file;
//  - on the reloader's connection, the frames pipelined behind a reload
//    see the generation its reply names and that file's bytes.
TEST(ServerReloadProperty, GenerationsAreMonotoneAndBodiesMatchTheirFile) {
  const std::string paths[2] = {WriteCubes("srv_prop_a.opmc", 3000),
                                WriteCubes("srv_prop_b.opmc", 2000)};
  const int64_t records[2] = {3000, 2000};
  // The daemon starts on A as generation 1 and the reloader alternates
  // B, A, B, ...: odd generations serve A, even ones B.
  auto file_of = [](uint64_t generation) {
    return generation % 2 == 1 ? 0 : 1;
  };

  CompareRequest cmp;
  cmp.attribute = 0;
  cmp.value_a = 0;
  cmp.value_b = 1;
  cmp.target_class = 0;
  ComparisonSpec spec;
  spec.attribute = cmp.attribute;
  spec.value_a = cmp.value_a;
  spec.value_b = cmp.value_b;
  spec.target_class = cmp.target_class;
  spec.min_population = cmp.min_population;
  std::string compare_oracle[2];
  for (int f = 0; f < 2; ++f) {
    CubeLoadOptions eager;
    eager.use_mmap = false;
    ASSERT_OK_AND_ASSIGN(CubeStore store,
                         CubeStore::LoadFromFile(paths[f], nullptr, eager));
    QueryEngine engine(&store, /*cache_bytes=*/0);
    ASSERT_OK_AND_ASSIGN(auto result, engine.Compare(spec));
    compare_oracle[f] = server::EncodeComparisonResult(*result);
  }
  ASSERT_NE(compare_oracle[0], compare_oracle[1]);
  const std::string schema_payload = EncodeRequest(Op::kSchema, "");
  const std::string compare_payload =
      EncodeRequest(Op::kCompare, server::EncodeCompareRequest(cmp));

  for (const uint64_t seed : {0x5eed0001ull, 0x5eed0002ull, 0x5eed0003ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    server::ServerOptions options;
    options.cubes_path = paths[0];
    options.listen = SocketAddr("srv_prop_" + std::to_string(seed & 0xff) +
                                ".sock");
    options.loops = 1 + static_cast<int>(rng.Next() % 3);
    options.workers = 2 + static_cast<int>(rng.Next() % 3);
    auto ts = TestServer::Start(options);
    ASSERT_NE(ts, nullptr);

    constexpr int kReaders = 3;
    constexpr int kReloads = 12;
    std::atomic<bool> reloads_done{false};
    std::vector<std::string> failures(kReaders + 1);
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r, reader_seed = rng.Next()] {
        auto fail = [&](const std::string& what) {
          if (failures[r].empty()) failures[r] = what;
        };
        auto client_or = Client::Connect(ts->address());
        if (!client_or.ok()) return fail(client_or.status().ToString());
        std::unique_ptr<Client> client = std::move(client_or).MoveValue();
        Rng local(reader_seed);
        uint64_t last_generation = 0;      // of the latest schema reply
        std::vector<std::string> since;    // compare bodies after it
        uint64_t next_id = 1;
        for (int burst = 0; burst < 4 || !reloads_done.load(); ++burst) {
          const int depth = 2 + static_cast<int>(local.Next() % 9);
          std::string frames;
          std::vector<bool> is_schema;
          for (int i = 0; i < depth; ++i) {
            is_schema.push_back(local.Next() % 3 == 0);
            frames += EncodeFrame(next_id + i, is_schema.back()
                                                   ? schema_payload
                                                   : compare_payload);
          }
          if (Status st = client->SendRaw(frames); !st.ok()) {
            return fail(st.ToString());
          }
          for (int i = 0; i < depth; ++i) {
            auto reply = client->ReadReply();
            if (!reply.ok()) return fail(reply.status().ToString());
            if (reply->request_id != next_id + i) {
              return fail("reply out of request order");
            }
            if (!reply->ok()) return fail(reply->ErrorText());
            if (!is_schema[static_cast<size_t>(i)]) {
              if (reply->body != compare_oracle[0] &&
                  reply->body != compare_oracle[1]) {
                return fail("compare body matches neither container");
              }
              since.push_back(reply->body);
              continue;
            }
            auto info = server::DecodeSchemaInfo(reply->body);
            if (!info.ok()) return fail(info.status().ToString());
            const uint64_t g = info->store_generation;
            if (g < last_generation) {
              return fail("generation went back from " +
                          std::to_string(last_generation) + " to " +
                          std::to_string(g));
            }
            if (info->num_records != records[file_of(g)]) {
              return fail("schema of generation " + std::to_string(g) +
                          " describes the wrong file");
            }
            if (g == last_generation) {
              for (const std::string& body : since) {
                if (body != compare_oracle[file_of(g)]) {
                  return fail("compare between two schema replies of "
                              "generation " + std::to_string(g) +
                              " is not that file's bytes");
                }
              }
            }
            last_generation = g;
            since.clear();
          }
          next_id += static_cast<uint64_t>(depth);
        }
      });
    }
    threads.emplace_back([&, pause_seed = rng.Next()] {
      auto fail = [&](const std::string& what) {
        if (failures[kReaders].empty()) failures[kReaders] = what;
      };
      auto reload_all = [&] {
        auto client_or = Client::Connect(ts->address());
        if (!client_or.ok()) return fail(client_or.status().ToString());
        std::unique_ptr<Client> client = std::move(client_or).MoveValue();
        Rng pauses(pause_seed);
        uint64_t next_id = 1;
        for (int i = 0; i < kReloads; ++i) {
          const uint64_t generation = 2 + static_cast<uint64_t>(i);
          const int file = file_of(generation);
          ReloadRequest req;
          req.path = paths[file];
          // One write: the schema and compare behind the reload must wait
          // for it and then see its snapshot.
          const std::string frames =
              EncodeFrame(next_id, EncodeRequest(Op::kReload,
                                                 server::EncodeReloadRequest(
                                                     req))) +
              EncodeFrame(next_id + 1, schema_payload) +
              EncodeFrame(next_id + 2, compare_payload);
          next_id += 3;
          if (Status st = client->SendRaw(frames); !st.ok()) {
            return fail(st.ToString());
          }
          auto reloaded = client->ReadReply();
          if (!reloaded.ok()) return fail(reloaded.status().ToString());
          if (!reloaded->ok()) return fail(reloaded->ErrorText());
          auto info = server::DecodeReloadInfo(reloaded->body);
          if (!info.ok()) return fail(info.status().ToString());
          if (info->store_generation != generation ||
              info->num_records != records[file]) {
            return fail("reload " + std::to_string(i) +
                        " answered the wrong generation or file");
          }
          auto schema = client->ReadReply();
          if (!schema.ok()) return fail(schema.status().ToString());
          if (!schema->ok()) return fail(schema->ErrorText());
          auto schema_info = server::DecodeSchemaInfo(schema->body);
          if (!schema_info.ok()) return fail(schema_info.status().ToString());
          if (schema_info->store_generation != generation ||
              schema_info->num_records != records[file]) {
            return fail("the request after reload " + std::to_string(i) +
                        " did not see its snapshot");
          }
          auto compared = client->ReadReply();
          if (!compared.ok()) return fail(compared.status().ToString());
          if (!compared->ok()) return fail(compared->ErrorText());
          if (compared->body != compare_oracle[file]) {
            return fail("compare after reload " + std::to_string(i) +
                        " is not that file's bytes");
          }
          std::this_thread::sleep_for(
              std::chrono::microseconds(pauses.Next() % 2000));
        }
      };
      reload_all();
      reloads_done.store(true);
    });
    for (std::thread& t : threads) t.join();
    for (size_t i = 0; i < failures.size(); ++i) {
      EXPECT_EQ(failures[i], "") << "thread " << i;
    }
    ts->Stop();
    const server::ServerStats stats = ts->stats();
    EXPECT_EQ(stats.reloads, kReloads);
    EXPECT_EQ(stats.reload_failures, 0);
    EXPECT_EQ(stats.shed_retry_later, 0);
    EXPECT_EQ(stats.responses_error, 0);
  }
}

// ---------------------------------------------------------------------------
// Drain racing live traffic across loops
// ---------------------------------------------------------------------------

TEST(ServerDrainRace, ShutdownWithTrafficOnEveryLoopDrainsCleanly) {
  server::ServerOptions options;
  options.cubes_path = WriteCubes("srv_drain_race.opmc");
  options.listen = SocketAddr("srv_drain_race.sock");
  options.loops = 3;
  options.workers = 2;
  auto ts = TestServer::Start(options);
  ASSERT_NE(ts, nullptr);

  // Ping spammers on every loop. Each call must end as OK, a coded
  // SHUTTING_DOWN/RETRY_LATER response, or a clean connection error once
  // the drain closed the socket — never a hang or a garbled frame.
  constexpr int kClients = 4;
  std::vector<std::string> failures(kClients);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client_or = Client::Connect(ts->address());
      if (!client_or.ok()) return;  // raced the drain before connecting
      std::unique_ptr<Client> client = std::move(client_or).MoveValue();
      while (!stop.load()) {
        auto reply = client->Ping();
        if (!reply.ok()) return;  // drain closed the connection
        if (reply->ok() || reply->status == RespStatus::kShuttingDown ||
            reply->status == RespStatus::kRetryLater) {
          continue;
        }
        if (failures[c].empty()) failures[c] = reply->ErrorText();
        return;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Stop() asserts Serve() returned OK — the drain must terminate with
  // requests still arriving on all three loops.
  ts->Stop();
  stop.store(true);
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }
  EXPECT_GE(ts->stats().requests, 1);
}

// ---------------------------------------------------------------------------
// Unix peer-credential auth
// ---------------------------------------------------------------------------

TEST(ServerAuth, PeerCredentialAllowListAdmitsAndRejects) {
  const std::string cubes = WriteCubes("srv_auth.opmc");

  // Our own uid on the allow list: everything works.
  {
    server::ServerOptions options;
    options.cubes_path = cubes;
    options.listen = SocketAddr("srv_auth_ok.sock");
    options.allow_uids = {static_cast<uint32_t>(::geteuid())};
    auto ts = TestServer::Start(options);
    ASSERT_NE(ts, nullptr);
    ASSERT_OK_AND_ASSIGN(auto client, Client::Connect(ts->address()));
    ASSERT_OK_AND_ASSIGN(Reply ping, client->Ping());
    EXPECT_TRUE(ping.ok());
    ts->Stop();
    EXPECT_EQ(ts->stats().auth_rejected, 0);
  }

  // An allow list without our uid: the daemon answers one status-coded
  // reject frame (request id 0 — no request was read) and closes.
  {
    server::ServerOptions options;
    options.cubes_path = cubes;
    options.listen = SocketAddr("srv_auth_no.sock");
    options.allow_uids = {static_cast<uint32_t>(::geteuid()) + 1};
    options.loops = 2;
    auto ts = TestServer::Start(options);
    ASSERT_NE(ts, nullptr);
    ASSERT_OK_AND_ASSIGN(auto denied, Client::Connect(ts->address(), 5000));
    auto rejected = denied->ReadReply();
    if (rejected.ok()) {
      EXPECT_EQ(rejected->status, RespStatus::kBadRequest);
      EXPECT_EQ(rejected->request_id, 0u);
    }
    // Either way the connection is dead: no request ever succeeds.
    auto ping = denied->Ping();
    EXPECT_TRUE(!ping.ok() || !ping->ok());
    ts->Stop();
    EXPECT_GE(ts->stats().auth_rejected, 1);
    EXPECT_EQ(ts->stats().requests, 0);
  }

  // TCP carries no peer credentials; the combination is a startup error,
  // not a silently unenforced option.
  {
    server::ServerOptions options;
    options.cubes_path = cubes;
    options.listen = "127.0.0.1:0";
    options.allow_uids = {static_cast<uint32_t>(::geteuid())};
    auto started = server::Server::Start(options);
    EXPECT_FALSE(started.ok());
  }
}

// ---------------------------------------------------------------------------
// Ingest -> live daemon reload drill (publish hook sends RELOAD)
// ---------------------------------------------------------------------------

TEST(ServerIngestNotify, PublishHookReloadsLiveDaemonAfterCompaction) {
  const Schema schema = test::MakeSchema({{"region", {"north", "south"}},
                                          {"tier", {"basic", "plus"}},
                                          {"outcome", {"neg", "pos"}}});
  const std::string dir = ::testing::TempDir() + "/srv_ingest_notify";
  // Make the directory reusable across test reruns (Create refuses an
  // existing MANIFEST).
  (void)Env::Default()->DeleteFile(dir + "/MANIFEST");
  for (uint64_t id = 1; id < 8; ++id) {
    (void)Env::Default()->DeleteFile(dir + "/" + WalSegmentFileName(id));
    (void)Env::Default()->DeleteFile(dir + "/" + WalOpenFileName(id));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "cubes-%06llu.opmc",
                  static_cast<unsigned long long>(id));
    (void)Env::Default()->DeleteFile(dir + "/" + buf);
  }
  IngestOptions ingest_options;
  ingest_options.wal.sync_every_append = true;
  ASSERT_OK_AND_ASSIGN(
      auto ing, Ingester::Create(Env::Default(), dir, schema, ingest_options));

  // Serve the generation-1 (empty) container the ingester just wrote.
  server::ServerOptions options;
  options.cubes_path = dir + "/cubes-000001.opmc";
  options.listen = SocketAddr("srv_ingest_notify.sock");
  options.loops = 2;
  auto ts = TestServer::Start(options);
  ASSERT_NE(ts, nullptr);
  ASSERT_OK_AND_ASSIGN(auto client, Client::Connect(ts->address()));
  {
    ASSERT_OK_AND_ASSIGN(Reply schema_reply, client->Call(Op::kSchema));
    ASSERT_TRUE(schema_reply.ok()) << schema_reply.ErrorText();
    ASSERT_OK_AND_ASSIGN(server::SchemaInfo info,
                         server::DecodeSchemaInfo(schema_reply.body));
    EXPECT_EQ(info.num_records, 0);
    EXPECT_EQ(info.store_generation, 1u);
  }

  // The drill: publishing a compaction pushes a RELOAD naming the fresh
  // container into the running daemon.
  const std::string daemon_addr = ts->address();
  ing->set_publish_hook(
      [&daemon_addr](const CubeStore*, const std::string& cube_path) {
        OPMAP_ASSIGN_OR_RETURN(std::unique_ptr<Client> notify,
                               Client::Connect(daemon_addr, 10000));
        server::ReloadRequest req;
        req.path = cube_path;
        OPMAP_ASSIGN_OR_RETURN(Reply reply, notify->Reload(req));
        return reply.ToStatus();
      });

  Dataset batch(schema);
  ValueCode codes[3];
  for (uint64_t r = 0; r < 5; ++r) {
    codes[0] = static_cast<ValueCode>(r % 2);
    codes[1] = static_cast<ValueCode>((r / 2) % 2);
    codes[2] = static_cast<ValueCode>(r % 2);
    batch.AppendRowUnchecked(codes);
  }
  ASSERT_OK_AND_ASSIGN(const uint64_t seq, ing->AppendBatch(batch));
  EXPECT_EQ(seq, 1u);
  ASSERT_OK(ing->Compact());
  EXPECT_EQ(ing->GetStats().publish_failures, 0)
      << ing->GetStats().last_publish_error;

  // The daemon now serves the compacted data without having restarted.
  ASSERT_OK_AND_ASSIGN(Reply schema_reply, client->Call(Op::kSchema));
  ASSERT_TRUE(schema_reply.ok()) << schema_reply.ErrorText();
  ASSERT_OK_AND_ASSIGN(server::SchemaInfo info,
                       server::DecodeSchemaInfo(schema_reply.body));
  EXPECT_EQ(info.num_records, 5);
  EXPECT_EQ(info.store_generation, 2u);
  ASSERT_OK(ing->Close());
  ts->Stop();
  EXPECT_EQ(ts->stats().reloads, 1);
}

}  // namespace
}  // namespace opmap
