#include "serve/protocol.hpp"

#include <stdexcept>

#include "core/diag.hpp"

namespace syndcim::serve {

bool parse_request(const std::string& line, Request* out, std::string* err) {
  JsonValue v;
  if (!json_parse(line, &v, err)) return false;
  if (!v.is_object()) {
    if (err != nullptr) *err = "request must be a JSON object";
    return false;
  }
  Request req;
  if (const JsonValue* id = v.find("id")) {
    if (!id->is_string() && !id->is_number()) {
      if (err != nullptr) *err = "'id' must be a string or number";
      return false;
    }
    req.id = id->as_kv_string();
  }
  const JsonValue* method = v.find("method");
  if (method == nullptr || !method->is_string() ||
      method->as_string().empty()) {
    if (err != nullptr) *err = "missing 'method' string";
    return false;
  }
  req.method = method->as_string();
  if (const JsonValue* dl = v.find("deadline_ms")) {
    if (!dl->is_number() || dl->as_number() < 0) {
      if (err != nullptr) *err = "'deadline_ms' must be a number >= 0";
      return false;
    }
    req.deadline_ms = dl->as_number();
  }
  if (const JsonValue* params = v.find("params")) {
    if (!params->is_object()) {
      if (err != nullptr) *err = "'params' must be an object";
      return false;
    }
    req.params = *params;
  }
  *out = std::move(req);
  return true;
}

std::map<std::string, std::string> params_to_kv(const JsonValue& params) {
  std::map<std::string, std::string> kv;
  if (params.is_null()) return kv;
  for (const auto& [k, v] : params.members()) {
    if (v.is_array() || v.is_object()) {
      throw std::invalid_argument("param '" + k +
                                  "' must be a scalar (string or number)");
    }
    kv[k] = v.as_kv_string();
  }
  return kv;
}

namespace {
std::string response_head(const std::string& id) {
  return std::string("{\"proto\": \"") + kProtoName +
         "\", \"version\": " + std::to_string(kProtoVersion) +
         ", \"id\": \"" + core::json_escape_string(id) + "\"";
}
}  // namespace

std::string ok_response(const std::string& id,
                        const std::string& result_json) {
  return response_head(id) + ", \"status\": \"ok\", \"result\": " +
         result_json + "}";
}

std::string error_response(const std::string& id, int code,
                           const std::string& reason) {
  return response_head(id) + ", \"status\": \"error\", \"error\": {\"code\": " +
         std::to_string(code) + ", \"reason\": \"" +
         core::json_escape_string(reason) + "\"}}";
}

}  // namespace syndcim::serve
