#include "net/fact_server.h"

#include <chrono>
#include <cstdlib>
#include <map>
#include <utility>

#include "net/json.h"
#include "service/filter_parse.h"

namespace sitfact {
namespace net {

namespace {

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kUnimplemented:
      return 501;
    default:
      return 500;
  }
}

/// Validates an unsigned-integer query parameter lexeme before it is
/// embedded as a raw JSON number.
Status CheckUnsignedLexeme(const std::string& name, const std::string& v) {
  if (v.empty()) {
    return Status::InvalidArgument("query parameter '" + name +
                                   "' needs a value");
  }
  for (char c : v) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("query parameter '" + name +
                                     "' is not an unsigned integer: '" + v +
                                     "'");
    }
  }
  return Status();
}

StatusOr<bool> ParseBoolParam(const std::string& name, const std::string& v) {
  if (v.empty() || v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  return Status::InvalidArgument("query parameter '" + name +
                                 "' is not a boolean: '" + v + "'");
}

}  // namespace

FactServer::FactServer(const FactService* service, const Relation* relation,
                       Options options)
    : service_(service),
      relation_(relation),
      options_(std::move(options)),
      server_(options_.net) {
  server_.set_handler(
      [this](const HttpRequest& request) { return Handle(request); });
}

HttpResponse FactServer::ErrorResponse(int http_status,
                                       const Status& status) {
  HttpResponse response;
  response.status = http_status;
  response.body = SerializeErrorBody(status);
  return response;
}

HttpResponse FactServer::Handle(const HttpRequest& request) {
  const std::string& path = request.path;
  if (path == "/healthz") {
    HttpResponse out;
    out.body = "{\"schema\":1,\"status\":\"ok\"}";
    return out;
  }
  if (path == "/statz") {
    return StatzResponse();
  }
  if (path == "/quitquitquit") {
    RequestStop();
    HttpResponse out;
    out.body = "{\"schema\":1,\"status\":\"shutting down\"}";
    out.close = true;
    return out;
  }
  if (path.size() > 1) {
    auto kind = ParseQueryKind(path.substr(1));
    if (kind.ok()) {
      if (request.method != "GET" && request.method != "POST") {
        return ErrorResponse(
            405, Status::InvalidArgument("use GET or POST for " + path));
      }
      EndpointStats* stats = &endpoint_stats_[path.substr(1)];
      const auto start = std::chrono::steady_clock::now();
      HttpResponse response = HandleQuery(kind.value(), request, stats);
      const auto micros =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      stats->total_micros += static_cast<uint64_t>(micros);
      if (static_cast<uint64_t>(micros) > stats->max_micros) {
        stats->max_micros = static_cast<uint64_t>(micros);
      }
      return response;
    }
  }
  return ErrorResponse(404, Status::NotFound("no endpoint " + path));
}

HttpResponse FactServer::HandleQuery(QueryKind kind,
                                     const HttpRequest& http_request,
                                     EndpointStats* stats) {
  ++stats->requests;
  std::string empty_note;
  QueryRequest request;
  if (http_request.method == "POST") {
    auto json = JsonValue::Parse(http_request.body);
    if (!json.ok()) {
      ++stats->errors;
      return ErrorResponse(400, json.status());
    }
    auto parsed = RequestFromJson(json.value(), relation_, &empty_note);
    if (!parsed.ok()) {
      ++stats->errors;
      return ErrorResponse(HttpStatusFor(parsed.status()), parsed.status());
    }
    request = std::move(parsed).value();
    const JsonValue* body_kind = json.value().Find("kind");
    if (body_kind != nullptr && request.kind != kind) {
      ++stats->errors;
      return ErrorResponse(
          400, Status::InvalidArgument(
                   "request kind '" + std::string(QueryKindName(request.kind)) +
                   "' does not match endpoint '" + http_request.path + "'"));
    }
  } else {
    auto parsed = RequestFromParams(kind, http_request, &empty_note);
    if (!parsed.ok()) {
      ++stats->errors;
      return ErrorResponse(HttpStatusFor(parsed.status()), parsed.status());
    }
    request = std::move(parsed).value();
  }
  request.kind = kind;

  FactService::Snapshot snapshot = service_->Acquire();

  if (!empty_note.empty()) {
    // A `where` value that never occurs: provably empty context, answered
    // with an empty page at the current epoch (mirrors the CLI).
    QueryResponse response;
    response.epoch = snapshot.epoch();
    HttpResponse out;
    out.body = SerializeResponse(response);
    return out;
  }

  const std::string key = CanonicalRequestKey(request);
  const uint64_t epoch = snapshot.epoch();
  if (options_.cache_capacity > 0) {
    auto it = cache_.find(key);
    if (it != cache_.end() && it->second.epoch == epoch) {
      ++stats->cache_hits;
      HttpResponse out;
      out.body = it->second.body;
      return out;
    }
  }

  auto response = ExecuteQuery(snapshot, request);
  if (!response.ok()) {
    ++stats->errors;
    return ErrorResponse(HttpStatusFor(response.status()), response.status());
  }
  std::string body = SerializeResponse(response.value());
  if (options_.cache_capacity > 0) {
    if (cache_.find(key) == cache_.end()) {
      while (cache_order_.size() >= options_.cache_capacity) {
        cache_.erase(cache_order_.front());
        cache_order_.pop_front();
      }
      cache_order_.push_back(key);
    }
    cache_[key] = CacheEntry{epoch, body};
  }
  HttpResponse out;
  out.body = std::move(body);
  return out;
}

StatusOr<QueryRequest> FactServer::RequestFromParams(
    QueryKind kind, const HttpRequest& request,
    std::string* empty_note) const {
  // Assemble the exact JSON object shape a POST body carries, then reuse
  // the one deserializer — GET and POST cannot diverge in meaning.
  JsonValue body = JsonValue::Object();
  JsonValue filter = JsonValue::Object();
  for (const auto& [name, value] : request.query) {
    if (name == "k" || name == "record") {
      Status s = CheckUnsignedLexeme(name, value);
      if (!s.ok()) return s;
      body.Set(name, JsonValue::RawNumber(value));
    } else if (name == "tuple") {
      Status s = CheckUnsignedLexeme(name, value);
      if (!s.ok()) return s;
      if (kind == QueryKind::kFactsForTuple) {
        body.Set("tuple", JsonValue::RawNumber(value));
      } else {
        filter.Set("tuple", JsonValue::RawNumber(value));
      }
    } else if (name == "first" || name == "last") {
      Status s = CheckUnsignedLexeme(name, value);
      if (!s.ok()) return s;
      body.Set(name == "first" ? "window_first" : "window_last",
               JsonValue::RawNumber(value));
    } else if (name == "cursor") {
      body.Set("cursor", JsonValue::Str(value));
    } else if (name == "where" || name == "measures") {
      filter.Set(name, JsonValue::Str(value));
    } else if (name == "window") {
      if (kind == QueryKind::kFactsInWindow) {
        // The window names the query range itself, not a filter.
        uint64_t first = 0, last = 0;
        Status s = ParseArrivalWindow(value, &first, &last);
        if (!s.ok()) return s;
        body.Set("window_first", JsonValue::Number(first));
        body.Set("window_last", JsonValue::Number(last));
      } else {
        filter.Set("window", JsonValue::Str(value));
      }
    } else if (name == "min_arrival" || name == "max_arrival" ||
               name == "bound_mask") {
      Status s = CheckUnsignedLexeme(name, value);
      if (!s.ok()) return s;
      filter.Set(name, JsonValue::RawNumber(value));
    } else if (name == "min_prominence") {
      char* end = nullptr;
      (void)std::strtod(value.c_str(), &end);
      if (value.empty() || end != value.c_str() + value.size()) {
        return Status::InvalidArgument(
            "query parameter 'min_prominence' is not a number: '" + value +
            "'");
      }
      filter.Set("min_prominence", JsonValue::RawNumber(value));
    } else if (name == "prominent_only" || name == "include_dead") {
      auto b = ParseBoolParam(name, value);
      if (!b.ok()) return b.status();
      filter.Set(name, JsonValue::Bool(b.value()));
    } else {
      return Status::InvalidArgument("unknown query parameter '" + name +
                                     "'");
    }
  }
  if (!filter.keys().empty()) body.Set("filter", std::move(filter));
  return RequestFromJson(body, relation_, empty_note);
}

HttpResponse FactServer::StatzResponse() const {
  const FactService::Snapshot snap = service_->Acquire();
  JsonValue obj = JsonValue::Object();
  obj.Set("schema",
          JsonValue::Number(static_cast<uint64_t>(kWireSchemaVersion)));
  obj.Set("epoch", JsonValue::Number(snap.epoch()));

  const EpollServer::Stats& net = server_.stats();
  JsonValue server = JsonValue::Object();
  server.Set("accepted", JsonValue::Number(net.accepted));
  server.Set("shed", JsonValue::Number(net.shed));
  server.Set("protocol_errors", JsonValue::Number(net.protocol_errors));
  server.Set("requests", JsonValue::Number(net.requests));
  server.Set("idle_closed", JsonValue::Number(net.idle_closed));
  server.Set("active_connections", JsonValue::Number(net.active_connections));
  obj.Set("server", std::move(server));

  // Sorted for a stable rendering.
  std::map<std::string, const EndpointStats*> sorted;
  for (const auto& [name, stats] : endpoint_stats_) {
    sorted[name] = &stats;
  }
  JsonValue endpoints = JsonValue::Object();
  for (const auto& [name, stats] : sorted) {
    JsonValue e = JsonValue::Object();
    e.Set("requests", JsonValue::Number(stats->requests));
    e.Set("errors", JsonValue::Number(stats->errors));
    e.Set("cache_hits", JsonValue::Number(stats->cache_hits));
    e.Set("total_micros", JsonValue::Number(stats->total_micros));
    e.Set("max_micros", JsonValue::Number(stats->max_micros));
    endpoints.Set(name, std::move(e));
  }
  obj.Set("endpoints", std::move(endpoints));

  HttpResponse out;
  out.body = obj.Dump();
  return out;
}

}  // namespace net
}  // namespace sitfact
