#ifndef DATAMARAN_BENCH_E2E_TRACE_H_
#define DATAMARAN_BENCH_E2E_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

/// In-memory span recorder for the traced replay.
///
/// Every public call the replay makes into the pipeline becomes a span: an
/// id, the span that caused it, a request id (the input file or stream it
/// serves), a name, a layer, and its start and end on one thread. Counters
/// the library already keeps (StepTimings, the sink decorator's busy time)
/// become duration-only children: a measured duration inside their parent
/// with no position of their own. A duration-only child without a layer is
/// the benchmark's own work done inside a span (recording decisions for the
/// accuracy check); it counts toward no layer and is left out of the traced
/// wall and thread time. A span's self time is its duration minus
/// its duration-only children and its children on the same thread; a child
/// on another thread (a ParallelFor worker) is time spent in parallel and
/// is not subtracted. Spans stay in memory and are written once, at exit,
/// as Chrome trace-event JSON.

namespace datamaran::e2e {

struct Span {
  int id = 0;
  int parent = -1;   ///< -1 = root
  int request = 0;   ///< input file / logical lake file / stream
  int tid = 0;       ///< 0 = the replay's main thread
  std::string name;
  std::string layer;  ///< "" = replay glue, attributed to no layer
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool duration_only = false;

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Tracer {
 public:
  Tracer();

  /// Opens a span on thread `tid` and returns its id. Thread-safe.
  int Begin(std::string_view name, std::string_view layer, int parent,
            int request, int tid);
  void End(int id);

  /// Records `seconds` measured inside `parent` as a duration-only child.
  void AddDuration(int parent, std::string_view name, std::string_view layer,
                   double seconds);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-span self time (seconds), indexed like spans().
  std::vector<double> SelfTimes() const;
  /// Sum of self times per layer; glue spans are left out.
  std::map<std::string, double> SelfTimeByLayer() const;
  /// Sum of root-span durations, less the benchmark's own work: the
  /// replay's wall time.
  double WallSeconds() const;
  /// Sum of the durations of spans that are top-level on their thread, less
  /// the benchmark's own work: the thread time the trace covers (equals
  /// WallSeconds when single-threaded).
  double ThreadSeconds() const;

 private:
  int64_t Now() const;
  /// Duration-only children without a layer: the benchmark's own work.
  double OwnSeconds() const;

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  /// Next free display offset of each span's duration-only children.
  std::vector<int64_t> child_cursor_ns_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, std::string_view name, std::string_view layer,
        int parent, int request, int tid = 0)
      : tracer_(tracer),
        id_(tracer->Begin(name, layer, parent, request, tid)) {}
  ~Scope() { tracer_->End(id_); }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Writes the traces as one Chrome trace-event JSON document, one process
/// per (name, tracer) pair, which chrome://tracing and Perfetto open.
Status WriteChromeTrace(
    const std::string& path,
    const std::vector<std::pair<std::string, const Tracer*>>& traces);

}  // namespace datamaran::e2e

#endif  // DATAMARAN_BENCH_E2E_TRACE_H_
