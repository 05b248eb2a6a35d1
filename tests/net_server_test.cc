// Tests for src/net/: HTTP parsing, the epoll server over real sockets,
// and the FactServer application — multi-client concurrency, the
// byte-identical server-vs-in-process contract (cache hit AND miss paths),
// per-epoch cache coherence across a publish, admission control (429
// shedding), structured errors, and graceful shutdown. The concurrency
// claims here are what the TSan CI job verifies.

#include "net/fact_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/http.h"
#include "net/http_client.h"
#include "net/json.h"
#include "service/fact_service.h"
#include "service/filter_parse.h"
#include "service/query_api.h"
#include "test_util.h"

#include <gtest/gtest.h>

namespace sitfact {
namespace net {
namespace {

using testing_util::RandomDataConfig;
using testing_util::RandomDataset;

/// A FactService over a random dataset plus a FactServer serving it from a
/// background thread. `prefill` rows are ingested before the server starts;
/// the rest stay available for IngestMore() (single-writer contract: only
/// the test thread ever writes).
class ServingFixture {
 public:
  explicit ServingFixture(FactServer::Options options = {},
                          int num_tuples = 100, size_t prefill = SIZE_MAX,
                          uint64_t seed = 11)
      : data_(RandomDataset(Config(num_tuples, seed))), rel_(data_.schema()) {
    auto disc_or = DiscoveryEngine::CreateDiscoverer("STopDown", &rel_, {});
    EXPECT_TRUE(disc_or.ok());
    DiscoveryEngine::Config config;
    config.tau = 2.0;
    engine_ = std::make_unique<DiscoveryEngine>(
        &rel_, std::move(disc_or).value(), config);
    FactService::Options so;
    so.entity = "d0";
    service_ = std::make_unique<FactService>(&rel_, so);
    ingested_ = std::min(prefill, data_.rows().size());
    for (size_t i = 0; i < ingested_; ++i) {
      service_->OnArrival(engine_->Append(data_.rows()[i]));
    }
    options.net.port = 0;
    server_ = std::make_unique<FactServer>(service_.get(), &rel_, options);
  }

  ~ServingFixture() { Stop(); }

  void Start() {
    Status listening = server_->Listen();
    ASSERT_TRUE(listening.ok()) << listening.ToString();
    server_->set_external_stop(&stop_);
    thread_ = std::thread([this] { serve_status_ = server_->Serve(); });
  }

  void Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

  /// Waits for Serve() to return on its own (e.g. after /quitquitquit).
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Ingests `n` more of the held-back rows (test thread == writer thread).
  void IngestMore(size_t n) {
    for (size_t i = 0; i < n && ingested_ < data_.rows().size();
         ++i, ++ingested_) {
      service_->OnArrival(engine_->Append(data_.rows()[ingested_]));
    }
  }

  uint16_t port() const { return server_->port(); }
  const FactService& service() const { return *service_; }
  FactServer& server() { return *server_; }
  const Relation& relation() const { return rel_; }
  const Status& serve_status() const { return serve_status_; }

  /// The bytes the server must answer with for `request` at the current
  /// epoch — the in-process half of the differential contract.
  std::string Expected(const QueryRequest& request) const {
    auto response = ExecuteQuery(service_->Acquire(), request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return SerializeResponse(response.value());
  }

 private:
  static RandomDataConfig Config(int n, uint64_t seed) {
    RandomDataConfig cfg;
    cfg.num_tuples = n;
    cfg.seed = seed;
    cfg.num_dims = 3;
    cfg.num_measures = 2;
    return cfg;
  }

  Dataset data_;
  Relation rel_;
  std::unique_ptr<DiscoveryEngine> engine_;
  std::unique_ptr<FactService> service_;
  std::unique_ptr<FactServer> server_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  Status serve_status_;
  size_t ingested_ = 0;
};

/// Pulls a nested number out of a /statz body.
uint64_t StatzCounter(const std::string& body,
                      const std::vector<std::string>& path) {
  auto parsed = JsonValue::Parse(body);
  EXPECT_TRUE(parsed.ok()) << body;
  const JsonValue* v = &parsed.value();
  for (const std::string& key : path) {
    v = v->Find(key);
    if (v == nullptr) {
      ADD_FAILURE() << "no " << key << " in " << body;
      return 0;
    }
  }
  auto u = v->NumberAsU64();
  EXPECT_TRUE(u.ok());
  return u.ok() ? u.value() : 0;
}

TEST(HttpParse, RequestLineHeadersAndBody) {
  HttpLimits limits;
  HttpRequest req;
  const std::string text =
      "POST /topk?k=5&where=d0%3Dv1 HTTP/1.1\r\n"
      "Host: x\r\nContent-Type: application/json\r\n"
      "Content-Length: 4\r\n\r\n{}{}extra";
  ParseResult r = ParseHttpRequest(text, limits, &req);
  ASSERT_EQ(r.state, ParseResult::State::kComplete);
  EXPECT_EQ(r.consumed, text.size() - 5);  // "extra" stays in the buffer
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.path, "/topk");
  ASSERT_EQ(req.query.size(), 2u);
  EXPECT_EQ(req.query[0], (std::pair<std::string, std::string>{"k", "5"}));
  EXPECT_EQ(req.query[1],
            (std::pair<std::string, std::string>{"where", "d0=v1"}));
  EXPECT_EQ(req.body, "{}{}");
  EXPECT_TRUE(req.keep_alive);
  ASSERT_NE(req.Header("content-type"), nullptr);

  // Incomplete input asks for more; garbage is a 400; chunked is a 501.
  EXPECT_EQ(ParseHttpRequest("GET /x HTTP/1.1\r\n", limits, &req).state,
            ParseResult::State::kNeedMore);
  r = ParseHttpRequest("NOT A REQUEST\r\n\r\n", limits, &req);
  EXPECT_EQ(r.state, ParseResult::State::kBad);
  EXPECT_EQ(r.http_status, 400);
  r = ParseHttpRequest(
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", limits, &req);
  EXPECT_EQ(r.state, ParseResult::State::kBad);
  EXPECT_EQ(r.http_status, 501);

  // Oversized headers and bodies hit their limits, not unbounded buffers.
  HttpLimits tiny;
  tiny.max_header_bytes = 32;
  r = ParseHttpRequest("GET /" + std::string(64, 'x') + " HTTP/1.1\r\n\r\n",
                       tiny, &req);
  EXPECT_EQ(r.state, ParseResult::State::kBad);
  EXPECT_EQ(r.http_status, 431);
  tiny = HttpLimits();
  tiny.max_body_bytes = 8;
  r = ParseHttpRequest(
      "POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789", tiny, &req);
  EXPECT_EQ(r.state, ParseResult::State::kBad);
  EXPECT_EQ(r.http_status, 413);
}

TEST(FactServerRouting, MethodAndKindChecksWithoutSockets) {
  // Handle() is the routing core; drive it directly for the checks that do
  // not need a socket.
  ServingFixture fx;
  HttpRequest req;
  req.method = "PUT";
  req.target = "/topk";
  req.path = "/topk";
  HttpResponse resp = fx.server().Handle(req);
  EXPECT_EQ(resp.status, 405);
  EXPECT_EQ(resp.body, SerializeErrorBody(
                           Status::InvalidArgument("use GET or POST for "
                                                   "/topk")));

  // POST body whose kind contradicts the endpoint is rejected, pinned.
  req.method = "POST";
  req.body = "{\"schema\":1,\"kind\":\"explain\",\"record\":0}";
  resp = fx.server().Handle(req);
  EXPECT_EQ(resp.status, 400);
  EXPECT_EQ(resp.body,
            SerializeErrorBody(Status::InvalidArgument(
                "request kind 'explain' does not match endpoint '/topk'")));

  req.method = "GET";
  req.body.clear();
  req.path = "/nope";
  resp = fx.server().Handle(req);
  EXPECT_EQ(resp.status, 404);
}

TEST(FactServerSocket, ByteIdenticalToInProcessOnMissAndHit) {
  ServingFixture fx;
  fx.Start();
  HttpClient client("127.0.0.1", fx.port());

  QueryRequest topk;
  topk.k = 5;
  const std::string expected = fx.Expected(topk);

  auto first = client.Get("/topk?k=5");   // cache miss
  auto second = client.Get("/topk?k=5");  // cache hit
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first.value().status, 200);
  EXPECT_EQ(second.value().status, 200);
  // The contract: miss path and hit path both serve exactly the bytes the
  // in-process serializer produces for the same request at the same epoch.
  EXPECT_EQ(first.value().body, expected);
  EXPECT_EQ(second.value().body, expected);

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().body, "{\"schema\":1,\"status\":\"ok\"}");

  auto statz = client.Get("/statz");
  ASSERT_TRUE(statz.ok());
  const std::string& body = statz.value().body;
  EXPECT_EQ(StatzCounter(body, {"endpoints", "topk", "requests"}), 2u);
  EXPECT_EQ(StatzCounter(body, {"endpoints", "topk", "cache_hits"}), 1u);
  EXPECT_EQ(StatzCounter(body, {"endpoints", "topk", "errors"}), 0u);
  // One keep-alive connection carried all four requests.
  EXPECT_EQ(StatzCounter(body, {"server", "accepted"}), 1u);
  EXPECT_EQ(StatzCounter(body, {"server", "requests"}), 4u);
}

TEST(FactServerSocket, PostAndGetAgreeAcrossEveryEndpoint) {
  ServingFixture fx;
  fx.Start();
  HttpClient client("127.0.0.1", fx.port());
  const uint64_t last = fx.service().Acquire().arrivals() - 1;

  struct Case {
    std::string get_target;
    QueryRequest request;
  };
  std::vector<Case> cases;
  {
    Case c;
    c.get_target = "/topk?k=4";
    c.request.k = 4;
    cases.push_back(c);
    c = Case();
    c.get_target = "/facts_for_tuple?tuple=9&k=1000";
    c.request.kind = QueryKind::kFactsForTuple;
    c.request.tuple = 9;
    c.request.k = 1000;
    cases.push_back(c);
    c = Case();
    c.get_target = "/facts_in_window?window=0:" + std::to_string(last) +
                   "&k=1000";
    c.request.kind = QueryKind::kFactsInWindow;
    c.request.window_first = 0;
    c.request.window_last = last;
    c.request.k = 1000;
    cases.push_back(c);
    c = Case();
    c.get_target = "/about?where=d0%3Dv1&k=8";
    c.request.kind = QueryKind::kAbout;
    c.request.filter.about = [&] {
      std::string note;
      auto parsed = ParseWhereConstraint("d0=v1", fx.relation(), &note);
      EXPECT_TRUE(parsed.ok());
      EXPECT_TRUE(note.empty());
      return parsed.value();
    }();
    c.request.k = 8;
    cases.push_back(c);
    c = Case();
    c.get_target = "/explain?record=0";
    c.request.kind = QueryKind::kExplain;
    c.request.record = 0;
    cases.push_back(c);
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.get_target);
    const std::string expected = fx.Expected(c.request);
    auto get = client.Get(c.get_target);
    ASSERT_TRUE(get.ok()) << get.status().ToString();
    EXPECT_EQ(get.value().status, 200);
    EXPECT_EQ(get.value().body, expected);
    const std::string endpoint =
        c.get_target.substr(0, c.get_target.find('?'));
    auto post = client.Post(endpoint, RequestToJson(c.request).Dump());
    ASSERT_TRUE(post.ok()) << post.status().ToString();
    EXPECT_EQ(post.value().status, 200);
    EXPECT_EQ(post.value().body, expected);
  }
}

TEST(FactServerSocket, CursorTokenPaginatesOverTheWire) {
  ServingFixture fx;
  fx.Start();
  HttpClient client("127.0.0.1", fx.port());

  auto page1 = client.Get("/topk?k=3");
  ASSERT_TRUE(page1.ok());
  auto parsed = ParseResponse(page1.value().body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed.value().next.has_value());

  // The "next.token" field is the resumable query parameter.
  auto json = JsonValue::Parse(page1.value().body);
  ASSERT_TRUE(json.ok());
  const JsonValue* token = json.value().Find("next")->Find("token");
  ASSERT_NE(token, nullptr);

  QueryRequest page2_req;
  page2_req.k = 3;
  page2_req.cursor = parsed.value().next;
  auto page2 = client.Get("/topk?k=3&cursor=" + token->string_value());
  ASSERT_TRUE(page2.ok());
  EXPECT_EQ(page2.value().status, 200);
  EXPECT_EQ(page2.value().body, fx.Expected(page2_req));
}

TEST(FactServerSocket, StructuredErrorsAndEmptyNote) {
  ServingFixture fx;
  fx.Start();
  HttpClient client("127.0.0.1", fx.port());

  auto r = client.Get("/nope");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().status, 404);
  EXPECT_EQ(r.value().body,
            SerializeErrorBody(Status::NotFound("no endpoint /nope")));

  r = client.Get("/topk?zzz=1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().status, 400);
  EXPECT_EQ(r.value().body, SerializeErrorBody(Status::InvalidArgument(
                                "unknown query parameter 'zzz'")));

  r = client.Get("/about?where=season%3D1996");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().status, 400);
  EXPECT_EQ(r.value().body, SerializeErrorBody(Status::InvalidArgument(
                                "--where names no dimension: season")));

  r = client.Get("/explain?record=99999999");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().status, 404);

  r = client.Post("/topk", "{\"schema\":2,\"kind\":\"topk\"}");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().status, 400);
  EXPECT_EQ(r.value().body,
            SerializeErrorBody(Status::InvalidArgument(
                "unsupported schema version 2 (this server speaks 1)")));

  // A where value that never occurs: 200 with a provably-empty page.
  r = client.Get("/topk?where=d0%3Dzebra");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().status, 200);
  const uint64_t epoch = fx.service().Acquire().epoch();
  EXPECT_EQ(r.value().body, "{\"schema\":1,\"epoch\":" +
                                std::to_string(epoch) + ",\"facts\":[]}");
}

TEST(FactServerSocket, MalformedHttpAnsweredAndClosed) {
  ServingFixture fx;
  fx.Start();

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char garbage[] = "THIS IS NOT HTTP\r\n\r\n";
  ASSERT_EQ(::write(fd, garbage, sizeof(garbage) - 1),
            static_cast<ssize_t>(sizeof(garbage) - 1));

  std::string got;
  char buf[1024];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;  // server closes after the error response
    got.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(got.rfind("HTTP/1.1 400 ", 0), 0u) << got;

  HttpClient client("127.0.0.1", fx.port());
  auto statz = client.Get("/statz");
  ASSERT_TRUE(statz.ok());
  EXPECT_EQ(StatzCounter(statz.value().body, {"server", "protocol_errors"}),
            1u);
}

TEST(FactServerSocket, MultiClientConcurrentRequestsStayByteIdentical) {
  ServingFixture fx;
  fx.Start();

  QueryRequest topk;
  topk.k = 7;
  QueryRequest per_tuple;
  per_tuple.kind = QueryKind::kFactsForTuple;
  per_tuple.tuple = 3;
  per_tuple.k = 1000;
  QueryRequest window;
  window.kind = QueryKind::kFactsInWindow;
  window.window_first = 0;
  window.window_last = 50;
  window.k = 1000;
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"/topk?k=7", fx.Expected(topk)},
      {"/facts_for_tuple?tuple=3&k=1000", fx.Expected(per_tuple)},
      {"/facts_in_window?window=0:50&k=1000", fx.Expected(window)},
  };

  constexpr int kClients = 4;
  constexpr int kRequestsEach = 24;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client("127.0.0.1", fx.port());
      for (int i = 0; i < kRequestsEach; ++i) {
        const auto& [target, want] = expected[(c + i) % expected.size()];
        auto r = client.Get(target);
        if (!r.ok() || r.value().status != 200 || r.value().body != want) {
          ++mismatches;
        }
        // Exercise reconnect handling on a few iterations too.
        if (i % 10 == 9) client.Disconnect();
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  HttpClient client("127.0.0.1", fx.port());
  auto statz = client.Get("/statz");
  ASSERT_TRUE(statz.ok());
  EXPECT_EQ(StatzCounter(statz.value().body, {"server", "requests"}),
            static_cast<uint64_t>(kClients * kRequestsEach) + 1);
  EXPECT_EQ(StatzCounter(statz.value().body, {"server", "shed"}), 0u);
}

TEST(FactServerSocket, ShedsBeyondConnectionLimitWith429) {
  FactServer::Options options;
  options.net.max_connections = 1;
  options.net.retry_after_seconds = 3;
  ServingFixture fx(options);
  fx.Start();

  HttpClient holder("127.0.0.1", fx.port());
  auto held = holder.Get("/healthz");  // occupies the single admitted slot
  ASSERT_TRUE(held.ok());
  ASSERT_EQ(held.value().status, 200);

  HttpClient extra("127.0.0.1", fx.port());
  auto shed = extra.Get("/healthz");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed.value().status, 429);
  ASSERT_NE(shed.value().Header("retry-after"), nullptr);
  EXPECT_EQ(*shed.value().Header("retry-after"), "3");
  EXPECT_EQ(shed.value().body,
            "{\"schema\":1,\"error\":{\"code\":\"overloaded\",\"message\":"
            "\"connection limit reached, retry later\"}}");

  // Once the holder leaves, the next connection is admitted again.
  holder.Disconnect();
  for (int attempt = 0; attempt < 50; ++attempt) {
    auto retry = extra.Get("/healthz");
    if (retry.ok() && retry.value().status == 200) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_LT(attempt, 49) << "server never readmitted after shed";
  }

  fx.Stop();
  EXPECT_GE(fx.server().net_stats().shed, 1u);
}

TEST(FactServerSocket, IdleKeepAliveConnectionsAreReaped) {
  FactServer::Options options;
  options.net.max_connections = 1;
  options.net.idle_timeout_ms = 150;
  ServingFixture fx(options);
  fx.Start();

  HttpClient idler("127.0.0.1", fx.port());
  auto first = idler.Get("/healthz");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first.value().status, 200);

  // The idler holds the only admission slot and goes quiet. Once the idle
  // reaper fires, the slot frees up and a fresh connection is admitted
  // (answered 200) instead of shed at the door with 429.
  HttpClient next("127.0.0.1", fx.port());
  bool admitted = false;
  for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
    auto retry = next.Get("/healthz");
    admitted = retry.ok() && retry.value().status == 200;
    if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(admitted) << "idle keep-alive connection was never reaped";

  fx.Stop();
  EXPECT_GE(fx.server().net_stats().idle_closed, 1u);
}

TEST(FactServerSocket, CacheStaysCoherentAcrossEpochPublish) {
  // Hold back 40 rows; publish them mid-serving. Structured queries only —
  // the Relation is the writer thread's (textual `where` would read its
  // dictionaries from the server thread).
  ServingFixture fx({}, 100, 60);
  fx.Start();
  HttpClient client("127.0.0.1", fx.port());

  QueryRequest topk;
  topk.k = 5;
  const std::string before = fx.Expected(topk);
  auto r1 = client.Get("/topk?k=5");  // miss: fills the cache
  auto r2 = client.Get("/topk?k=5");  // hit
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1.value().body, before);
  EXPECT_EQ(r2.value().body, before);

  fx.IngestMore(40);  // publishes new epochs while the server is serving
  const std::string after = fx.Expected(topk);
  ASSERT_NE(after, before);  // the epoch (at least) moved

  // The stale cache entry must not be served: a publish invalidates it by
  // construction (entry.epoch != snapshot.epoch()).
  auto r3 = client.Get("/topk?k=5");  // miss again at the new epoch
  auto r4 = client.Get("/topk?k=5");  // hit at the new epoch
  ASSERT_TRUE(r3.ok() && r4.ok());
  EXPECT_EQ(r3.value().body, after);
  EXPECT_EQ(r4.value().body, after);

  auto statz = client.Get("/statz");
  ASSERT_TRUE(statz.ok());
  EXPECT_EQ(StatzCounter(statz.value().body, {"endpoints", "topk", "requests"}),
            4u);
  EXPECT_EQ(
      StatzCounter(statz.value().body, {"endpoints", "topk", "cache_hits"}),
      2u);
}

TEST(FactServerSocket, StatzSaysWhatTheIndexHolds) {
  ServingFixture fx({}, 100, 60);
  fx.Start();
  HttpClient client("127.0.0.1", fx.port());

  auto check = [&] {
    auto statz = client.Get("/statz");
    ASSERT_TRUE(statz.ok());
    const std::string& body = statz.value().body;
    auto parsed = JsonValue::Parse(body);
    ASSERT_TRUE(parsed.ok()) << body;
    const JsonValue* index = parsed.value().Find("index");
    ASSERT_NE(index, nullptr) << body;
    EXPECT_EQ(index->keys(),
              (std::vector<std::string>{"facts", "arrivals", "bytes"}));

    const FactService::Snapshot snap = fx.service().Acquire();
    EXPECT_EQ(StatzCounter(body, {"epoch"}), snap.epoch());
    EXPECT_EQ(StatzCounter(body, {"index", "facts"}), snap.fact_count());
    EXPECT_EQ(StatzCounter(body, {"index", "arrivals"}), snap.arrivals());
    EXPECT_EQ(StatzCounter(body, {"index", "bytes"}),
              snap.ApproxMemoryBytes());
    EXPECT_GT(snap.ApproxMemoryBytes(), snap.fact_count() * sizeof(PackedFact));
  };
  check();
  fx.IngestMore(40);  // the index grows; /statz follows the new epoch
  check();
  EXPECT_EQ(fx.service().Acquire().arrivals(), 100u);
}

TEST(FactServerSocket, QuitQuitQuitStopsServeGracefully) {
  ServingFixture fx;
  fx.Start();
  {
    HttpClient client("127.0.0.1", fx.port());
    auto r = client.Post("/quitquitquit", "");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().status, 200);
    EXPECT_EQ(r.value().body, "{\"schema\":1,\"status\":\"shutting down\"}");
  }
  fx.Join();  // Serve() returns on its own, no external stop needed
  EXPECT_TRUE(fx.serve_status().ok()) << fx.serve_status().ToString();
}

}  // namespace
}  // namespace net
}  // namespace sitfact
