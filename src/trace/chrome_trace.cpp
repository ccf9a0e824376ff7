#include "trace/chrome_trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace bf::trace {
namespace {

std::string hex_id(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// Total order for export: timeline first, then stable structural tie-breaks
// so the sort result is independent of recording interleaving.
bool span_before(const Span& a, const Span& b) {
  if (a.start != b.start) return a.start < b.start;
  if (a.end != b.end) return a.end < b.end;
  if (a.track != b.track) return a.track < b.track;
  if (a.name != b.name) return a.name < b.name;
  if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
  return a.span_id < b.span_id;
}

}  // namespace

void TraceBuilder::add(Span span) {
  BF_CHECK(span.end >= span.start);
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
}

std::size_t TraceBuilder::span_count() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

std::vector<Span> TraceBuilder::sorted_locked() const {
  std::vector<Span> out(spans_.begin(), spans_.end());
  std::sort(out.begin(), out.end(), span_before);
  return out;
}

std::vector<Span> TraceBuilder::spans() const {
  std::lock_guard lock(mutex_);
  return sorted_locked();
}

Result<CriticalPath> TraceBuilder::critical_path(
    std::uint64_t trace_id) const {
  std::vector<Span> all;
  {
    std::lock_guard lock(mutex_);
    all = sorted_locked();
  }
  std::vector<const Span*> spans;
  for (const Span& span : all) {
    if (span.trace_id == trace_id && span.trace_id != 0) {
      spans.push_back(&span);
    }
  }
  if (spans.empty()) {
    return NotFound("no spans recorded for trace " + hex_id(trace_id));
  }

  std::map<std::uint64_t, const Span*> by_id;
  for (const Span* span : spans) by_id.emplace(span->span_id, span);

  // Root = the parentless span (the gateway's "request"); sorted order makes
  // the earliest one win if a trace somehow has several.
  const Span* root = nullptr;
  for (const Span* span : spans) {
    if (span->parent_span_id == 0) {
      root = span;
      break;
    }
  }
  if (root == nullptr) root = spans.front();

  // Depth = distance to the root along parent links; deeper spans are more
  // specific and win attribution of any instant they cover.
  std::vector<int> depth(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::uint64_t parent = spans[i]->parent_span_id;
    while (parent != 0 && depth[i] <= 64) {
      auto it = by_id.find(parent);
      if (it == by_id.end()) break;
      ++depth[i];
      parent = it->second->parent_span_id;
    }
  }

  // Elementary segments: every span boundary inside the root interval.
  std::vector<std::int64_t> cuts{root->start.ns(), root->end.ns()};
  for (const Span* span : spans) {
    if (span->start > root->start && span->start < root->end) {
      cuts.push_back(span->start.ns());
    }
    if (span->end > root->start && span->end < root->end) {
      cuts.push_back(span->end.ns());
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  CriticalPath path;
  path.trace_id = trace_id;
  path.total = root->end - root->start;

  // Charge each segment to the deepest covering span (ties: latest start,
  // then largest span id) and aggregate per hop in first-appearance order —
  // the self times partition the root interval, so they sum to `total`.
  std::map<std::pair<std::string, std::string>, std::size_t> hop_index;
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    const std::int64_t a = cuts[c];
    const std::int64_t b = cuts[c + 1];
    const Span* winner = nullptr;
    int winner_depth = -1;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span* span = spans[i];
      if (span->start.ns() > a || span->end.ns() < b) continue;
      if (winner == nullptr || depth[i] > winner_depth ||
          (depth[i] == winner_depth &&
           (span->start > winner->start ||
            (span->start == winner->start &&
             span->span_id > winner->span_id)))) {
        winner = span;
        winner_depth = depth[i];
      }
    }
    if (winner == nullptr) continue;  // outside every span: cannot happen
    auto key = std::make_pair(winner->name, winner->track);
    auto it = hop_index.find(key);
    if (it == hop_index.end()) {
      it = hop_index.emplace(key, path.hops.size()).first;
      path.hops.push_back(CriticalPathHop{winner->name, winner->track, {}});
    }
    path.hops[it->second].self =
        path.hops[it->second].self + vt::Duration::nanos(b - a);
  }
  return path;
}

std::string TraceBuilder::to_json() const {
  std::vector<Span> spans;
  {
    std::lock_guard lock(mutex_);
    spans = sorted_locked();
  }

  // Stable pid/tid assignment: one process for the cluster, one thread row
  // per track, in first-seen (post-sort) order.
  std::map<std::string, int> track_tid;
  for (const Span& span : spans) {
    track_tid.emplace(span.track, static_cast<int>(track_tid.size()) + 1);
  }
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& span : spans) {
    if (span.span_id != 0) by_id.emplace(span.span_id, &span);
  }

  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  // Thread name metadata so the UI labels each row with the board id.
  for (const auto& [track, tid] : track_tid) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << json_escape(track) << "\"}}";
  }
  for (const Span& span : spans) {
    out << ",{\"name\":\"" << json_escape(span.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << track_tid.at(span.track)
        << ",\"ts\":" << span.start.ns() / 1000
        << ",\"dur\":" << (span.end - span.start).ns() / 1000;
    if (span.trace_id != 0) {
      out << ",\"args\":{\"trace\":\"" << hex_id(span.trace_id)
          << "\",\"span\":\"" << hex_id(span.span_id) << "\"";
      if (span.parent_span_id != 0) {
        out << ",\"parent\":\"" << hex_id(span.parent_span_id) << "\"";
      }
      out << "}";
    }
    out << "}";
  }
  // Flow arrows for cross-track parent -> child links (e.g. the gateway's
  // rpc span to the Device Manager's handle span).
  for (const Span& span : spans) {
    if (span.trace_id == 0 || span.parent_span_id == 0) continue;
    auto parent = by_id.find(span.parent_span_id);
    if (parent == by_id.end()) continue;
    if (parent->second->track == span.track) continue;
    const std::string id = hex_id(span.span_id);
    out << ",{\"name\":\"link\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":\"" << id
        << "\",\"pid\":1,\"tid\":" << track_tid.at(parent->second->track)
        << ",\"ts\":" << span.start.ns() / 1000 << "}"
        << ",{\"name\":\"link\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
        << "\"id\":\"" << id
        << "\",\"pid\":1,\"tid\":" << track_tid.at(span.track)
        << ",\"ts\":" << span.start.ns() / 1000 << "}";
  }
  out << "]}";
  return out.str();
}

Status TraceBuilder::write_file(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    return Internal("cannot open '" + path + "' for writing");
  }
  file << to_json();
  return file.good() ? Status::Ok()
                     : Internal("short write to '" + path + "'");
}

std::string json_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace bf::trace
