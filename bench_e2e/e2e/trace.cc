#include "e2e/trace.h"

#include <algorithm>

#include "extraction/sinks.h"
#include "util/file_io.h"
#include "util/strings.h"

namespace datamaran::e2e {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(std::string_view name, std::string_view layer, int parent,
                  int request, int tid) {
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.request = request;
  span.tid = tid;
  span.name = std::string(name);
  span.layer = std::string(layer);
  span.start_ns = span.end_ns = now;
  spans_.push_back(std::move(span));
  child_cursor_ns_.push_back(now);
  return spans_.back().id;
}

void Tracer::End(int id) {
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

void Tracer::AddDuration(int parent, std::string_view name,
                         std::string_view layer, double seconds) {
  if (seconds <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const Span& p = spans_[static_cast<size_t>(parent)];
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.request = p.request;
  span.tid = p.tid;
  span.name = std::string(name);
  span.layer = std::string(layer);
  span.duration_only = true;
  // Laid out back to back from the parent's start, for display only.
  int64_t& cursor = child_cursor_ns_[static_cast<size_t>(parent)];
  span.start_ns = cursor;
  span.end_ns = cursor + static_cast<int64_t>(seconds * 1e9);
  cursor = span.end_ns;
  spans_.push_back(std::move(span));
  child_cursor_ns_.push_back(spans_.back().start_ns);
}

std::vector<double> Tracer::SelfTimes() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].seconds();
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    if (s.duration_only || s.tid == p.tid) {
      self[static_cast<size_t>(s.parent)] -= s.seconds();
    }
  }
  for (double& v : self) v = std::max(v, 0.0);
  return self;
}

std::map<std::string, double> Tracer::SelfTimeByLayer() const {
  const std::vector<double> self = SelfTimes();
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (!spans_[i].layer.empty()) out[spans_[i].layer] += self[i];
  }
  return out;
}

double Tracer::OwnSeconds() const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.duration_only && s.layer.empty()) total += s.seconds();
  }
  return total;
}

double Tracer::WallSeconds() const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.seconds();
  }
  return total - OwnSeconds();
}

double Tracer::ThreadSeconds() const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.duration_only) continue;
    if (s.parent < 0 || spans_[static_cast<size_t>(s.parent)].tid != s.tid) {
      total += s.seconds();
    }
  }
  return total - OwnSeconds();
}

Status WriteChromeTrace(
    const std::string& path,
    const std::vector<std::pair<std::string, const Tracer*>>& traces) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    out += first ? "" : ",\n";
    first = false;
  };
  for (size_t p = 0; p < traces.size(); ++p) {
    const int pid = static_cast<int>(p) + 1;
    sep();
    out += StrFormat(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
        "\"args\": {\"name\": \"",
        pid);
    AppendJsonEscaped(traces[p].first, &out);
    out += "\"}}";
    for (const Span& s : traces[p].second->spans()) {
      sep();
      out += "{\"name\": \"";
      AppendJsonEscaped(s.name, &out);
      out += "\", \"cat\": \"";
      AppendJsonEscaped(s.layer.empty() ? "replay" : s.layer, &out);
      out += StrFormat(
          "\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, "
          "\"tid\": %d, \"args\": {\"id\": %d, \"parent\": %d, "
          "\"request\": %d, \"duration_only\": %s}}",
          static_cast<double>(s.start_ns) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3, pid, s.tid, s.id,
          s.parent, s.request, s.duration_only ? "true" : "false");
    }
  }
  out += "\n]}\n";
  return WriteFileAtomic(path, out);
}

}  // namespace datamaran::e2e
