#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace sbft::suite {

double SubmitEndUs(const Op& op) {
  return std::min(op.submit_us + op.submit_ns / 1000.0,
                  static_cast<double>(std::max(op.done_us, op.submit_us)));
}

bool WriteChromeTrace(const std::string& path, const std::string& workload,
                      std::span<const Op> ops, std::size_t span_stride,
                      std::span<const CounterSample> counters,
                      std::span<const TraceMark> marks) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"sbft_bench %s\"}}",
               workload.c_str());
  const auto span = [out](const char* name, const Op& op, std::size_t id,
                          double start_us, double end_us) {
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"cat\":\"op\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%zu,"
                 "\"kind\":\"%s\"}}",
                 name, op.key, start_us, end_us - start_us, id,
                 op.is_write ? "write" : "read");
  };
  for (std::size_t id = 0; id < ops.size(); id += span_stride) {
    const Op& op = ops[id];
    if (op.state == OpState::kPending) continue;
    const double submit_end = SubmitEndUs(op);
    span("op", op, id, op.due_us, op.done_us);
    span("gen.queue", op, id, op.due_us, op.submit_us);
    span("router.submit", op, id, op.submit_us, submit_end);
    span("await", op, id, submit_end, op.done_us);
  }
  for (const CounterSample& c : counters) {
    std::fprintf(out,
                 ",\n{\"name\":\"runtime\",\"ph\":\"C\",\"pid\":1,\"ts\":%u,"
                 "\"args\":{\"frames_delivered\":%llu,"
                 "\"protocol_cpu_ms\":%.3f}}",
                 c.t_us, static_cast<unsigned long long>(c.frames_delivered),
                 static_cast<double>(c.protocol_cpu_ns) / 1e6);
    std::fprintf(out,
                 ",\n{\"name\":\"process\",\"ph\":\"C\",\"pid\":1,\"ts\":%u,"
                 "\"args\":{\"cpu_ms\":%.3f,\"ctx_switches\":%llu}}",
                 c.t_us, static_cast<double>(c.process_cpu_ns) / 1e6,
                 static_cast<unsigned long long>(c.ctx_switches));
    std::fprintf(out,
                 ",\n{\"name\":\"ops\",\"ph\":\"C\",\"pid\":1,\"ts\":%u,"
                 "\"args\":{\"ok\":%llu,\"aborted\":%llu}}",
                 c.t_us, static_cast<unsigned long long>(c.ok),
                 static_cast<unsigned long long>(c.aborted));
  }
  for (const TraceMark& mark : marks) {
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,"
                 "\"tid\":0,\"ts\":%u}",
                 mark.name, mark.t_us);
  }
  std::fprintf(out, "\n]}\n");
  const bool written = std::ferror(out) == 0;
  return std::fclose(out) == 0 && written;
}

}  // namespace sbft::suite
