#include "obs/trace_reader.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json.hpp"

namespace mh::obs {
namespace {

using json::JsonValue;

Category parse_category(std::string_view cat) {
  const std::size_t comma = cat.find(',');
  const std::string_view head =
      comma == std::string_view::npos ? cat : cat.substr(0, comma);
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    const auto c = static_cast<Category>(i);
    if (head == category_name(c)) return c;
  }
  return Category::kOther;
}

// A whole-number member of `obj` in [0, max] (0 when absent). Any other
// value fails the read with an error naming the field and its event.
bool whole_field(const JsonValue& obj, std::string_view key,
                 std::uint64_t max, std::size_t event, std::uint64_t* out,
                 std::string* error) {
  if (obj.whole(key, max, out)) return true;
  if (error != nullptr) {
    *error = "traceEvents[" + std::to_string(event) + "]: field '" +
             std::string(key) + "' is not a whole number in [0, " +
             std::to_string(max) + "]";
  }
  return false;
}

}  // namespace

bool ReadSpan::has_arg(std::string_view key) const {
  for (const auto& [k, v] : args) {
    if (k == key) return true;
  }
  return false;
}

double ReadSpan::arg(std::string_view key, double fallback) const {
  for (const auto& [k, v] : args) {
    if (k == key) return v;
  }
  return fallback;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> ReadTrace::edges() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const ReadFlow& f : flows) {
    if (f.start && f.from != 0 && f.to != 0) out.emplace_back(f.from, f.to);
  }
  return out;
}

bool ReadTrace::pid_is_sim(int pid) const {
  const auto it = process_names.find(pid);
  return it != process_names.end() &&
         it->second.find("simulated-time") != std::string::npos;
}

bool read_chrome_trace(std::istream& is, ReadTrace* out, std::string* error) {
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();

  JsonValue root;
  if (!json::parse(text, &root, error)) return false;
  if (root.kind != JsonValue::Kind::kObject) {
    if (error != nullptr) *error = "top-level JSON value is not an object";
    return false;
  }
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    if (error != nullptr) *error = "missing traceEvents array";
    return false;
  }

  constexpr std::uint64_t kMaxId = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kMaxPid = std::numeric_limits<int>::max();
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& ev = events->array[i];
    if (ev.kind != JsonValue::Kind::kObject) continue;
    const std::string_view ph = ev.text("ph");
    std::uint64_t pid_field = 0;
    std::uint64_t tid_field = 0;
    if (!whole_field(ev, "pid", kMaxPid, i, &pid_field, error) ||
        !whole_field(ev, "tid", kMaxPid, i, &tid_field, error)) {
      return false;
    }
    const int pid = static_cast<int>(pid_field);
    const int tid = static_cast<int>(tid_field);
    const JsonValue* args = ev.find("args");
    static const JsonValue kEmpty;
    const JsonValue& a =
        args != nullptr && args->kind == JsonValue::Kind::kObject ? *args
                                                                  : kEmpty;
    const auto id = [&](std::string_view key, std::uint64_t* value) {
      return whole_field(a, key, kMaxId, i, value, error);
    };
    if (ph == "X") {
      ReadSpan s;
      s.name = std::string(ev.text("name"));
      s.cat = std::string(ev.text("cat"));
      s.category = parse_category(s.cat);
      s.pid = pid;
      s.tid = tid;
      s.start_us = ev.num("ts");
      s.dur_us = ev.num("dur");
      if (!id("mh_id", &s.id) || !id("mh_parent", &s.parent) ||
          !id("mh_task", &s.task)) {
        return false;
      }
      for (const auto& [k, v] : a.object) {
        if (v.kind == JsonValue::Kind::kNumber && k != "mh_id" &&
            k != "mh_parent" && k != "mh_task") {
          s.args.emplace_back(k, v.number);
        }
      }
      out->spans.push_back(std::move(s));
    } else if (ph == "s" || ph == "f") {
      ReadFlow f;
      f.start = ph == "s";
      if (!whole_field(ev, "id", kMaxId, i, &f.flow_id, error) ||
          !id("mh_from", &f.from) || !id("mh_to", &f.to)) {
        return false;
      }
      f.pid = pid;
      f.tid = tid;
      f.ts_us = ev.num("ts");
      out->flows.push_back(f);
    } else if (ph == "M") {
      const std::string_view kind = ev.text("name");
      const std::string_view name = a.text("name");
      if (kind == "process_name") {
        out->process_names[pid] = std::string(name);
      } else if (kind == "thread_name") {
        out->thread_names[{pid, tid}] = std::string(name);
      } else if (kind == "mh_dropped_spans") {
        std::uint64_t dropped = 0;
        if (!id("value", &dropped)) return false;
        out->dropped_spans += dropped;
      }
    }
  }
  return true;
}

bool read_chrome_trace_file(const std::string& path, ReadTrace* out,
                            std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  return read_chrome_trace(is, out, error);
}

}  // namespace mh::obs
