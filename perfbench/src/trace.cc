// Span recorder, raw-result writer and process probes.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Trace -----------------------------------------------------------------

std::atomic<bool> Trace::enabled_{false};
std::atomic<int64_t> Trace::next_id_{0};

namespace {

std::mutex& SpanMu() {
  static std::mutex mu;
  return mu;
}
std::vector<Trace::Span>& SpanStore() {
  static std::vector<Trace::Span> spans;
  return spans;
}
// (literal pointer, text): span names are string literals, so the pointer
// is the fast lookup key and the text the fallback.
std::vector<std::pair<const char*, std::string>>& NameTable() {
  static std::vector<std::pair<const char*, std::string>> names;
  return names;
}

thread_local int64_t t_parent = -1;
thread_local int64_t t_request = -1;

}  // namespace

void Trace::Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

int32_t Trace::NameId(const char* name) {
  std::lock_guard<std::mutex> lock(SpanMu());
  auto& names = NameTable();
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i].first == name || names[i].second == name) {
      return static_cast<int32_t>(i);
    }
  }
  names.emplace_back(name, name);
  return static_cast<int32_t>(names.size() - 1);
}

void Trace::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(SpanMu());
  SpanStore().push_back(span);
}

std::vector<Trace::Span> Trace::Spans() {
  std::lock_guard<std::mutex> lock(SpanMu());
  return SpanStore();
}

std::vector<std::string> Trace::Names() {
  std::lock_guard<std::mutex> lock(SpanMu());
  std::vector<std::string> out;
  for (const auto& entry : NameTable()) out.push_back(entry.second);
  return out;
}

ScopedSpan::ScopedSpan(const char* name) : active_(Trace::on()) {
  if (!active_) return;
  span_.id = Trace::NextId();
  span_.parent = t_parent;
  span_.request = t_parent < 0 ? span_.id : t_request;
  span_.name = Trace::NameId(name);
  saved_parent_ = t_parent;
  saved_request_ = t_request;
  t_parent = span_.id;
  t_request = span_.request;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  t_parent = saved_parent_;
  t_request = saved_request_;
  Trace::Record(span_);
}

int64_t RecordInterval(const char* name, int64_t start_us, int64_t end_us,
                       int64_t parent) {
  if (!Trace::on()) return -1;
  Trace::Span span{};
  span.id = Trace::NextId();
  span.parent = parent;
  span.request = parent < 0 ? span.id : parent;
  span.name = Trace::NameId(name);
  span.start_ns = start_us * 1000;
  span.end_ns = end_us * 1000;
  Trace::Record(span);
  return span.id;
}

WindowToggler::WindowToggler(Report* report, std::string kind, bool trace,
                             int64_t window_us)
    : report_(report), kind_(std::move(kind)), trace_(trace),
      window_us_(window_us) {
  if (!trace_) return;
  Trace::Enable(false);
  start_us_ = NowUs();
}

void WindowToggler::Tick() {
  if (!trace_) return;
  const int64_t now = NowUs();
  if (now - start_us_ < window_us_) return;
  report_->AddWindow(kind_, start_us_, now, traced_);
  traced_ = !traced_;
  Trace::Enable(traced_);
  start_us_ = now;
}

void WindowToggler::Finish() {
  if (!trace_) return;
  report_->AddWindow(kind_, start_us_, NowUs(), traced_);
  Trace::Enable(true);
}

Sampler::Sampler(const serve::StreamPipeline* pipeline)
    : pipeline_(pipeline), thread_([this] {
        while (!stop_.load(std::memory_order_acquire)) {
          if (pipeline_ != nullptr) {
            const serve::PipelineStats st = pipeline_->stats();
            depth_match_ = std::max(depth_match_, st.match.queue_depth);
            depth_embed_ = std::max(depth_embed_, st.embed.queue_depth);
            depth_upsert_ = std::max(depth_upsert_, st.upsert.queue_depth);
          }
          threads_ = std::max(threads_, ThreadCount());
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }) {}

Sampler::~Sampler() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void Sampler::Finish(Report* report) {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (pipeline_ != nullptr) {
    report->SetValue("serve.queue_depth_max.match",
                     static_cast<double>(depth_match_));
    report->SetValue("serve.queue_depth_max.embed",
                     static_cast<double>(depth_embed_));
    report->SetValue("serve.queue_depth_max.upsert",
                     static_cast<double>(depth_upsert_));
  }
  report->SetValue("common.threads_peak", static_cast<double>(threads_));
}

// ---- Report ----------------------------------------------------------------

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename T, typename F>
void Array(std::ostream& os, const std::vector<T>& v, F fmt) {
  os << '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ',';
    os << fmt(v[i]);
  }
  os << ']';
}

}  // namespace

void Report::AddSamples(const std::string& name, const std::vector<double>& v) {
  auto& dst = samples_[name];
  dst.insert(dst.end(), v.begin(), v.end());
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
  std::fprintf(stderr, "check %-28s %s  %s\n", name.c_str(),
               ok ? "ok  " : "FAIL", detail.c_str());
}

bool Report::all_checks_ok() const {
  for (const auto& c : checks_) {
    if (!c.ok) return false;
  }
  return true;
}

bool Report::Write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const auto i64 = [](int64_t x) { return std::to_string(x); };
  os << "{\"host\":{";
  bool first = true;
  for (const auto& [k, v] : host_) {
    os << (first ? "" : ",") << Quote(k) << ':' << Quote(v);
    first = false;
  }
  os << "},\"setup_s\":";
  Array(os, setup_s_, Num);
  os << ",\"setup_cpu_s\":";
  Array(os, setup_cpu_s_, Num);
  os << ",\"ops\":{";
  first = true;
  for (const auto& [kind, s] : ops_) {
    os << (first ? "" : ",") << Quote(kind) << ":{\"shed\":" << s.shed
       << ",\"due_us\":";
    Array(os, s.due_us, i64);
    os << ",\"start_us\":";
    Array(os, s.start_us, i64);
    os << ",\"end_us\":";
    Array(os, s.end_us, i64);
    os << '}';
    first = false;
  }
  os << "},\"values\":{";
  first = true;
  for (const auto& [k, v] : values_) {
    os << (first ? "" : ",") << Quote(k) << ':' << Num(v);
    first = false;
  }
  os << "},\"samples\":{";
  first = true;
  for (const auto& [k, v] : samples_) {
    os << (first ? "" : ",") << Quote(k) << ':';
    Array(os, v, Num);
    first = false;
  }
  os << "},\"checks\":[";
  for (size_t i = 0; i < checks_.size(); ++i) {
    os << (i > 0 ? "," : "") << "{\"name\":" << Quote(checks_[i].name)
       << ",\"ok\":" << (checks_[i].ok ? "true" : "false")
       << ",\"detail\":" << Quote(checks_[i].detail) << '}';
  }
  os << "],\"windows\":[";
  for (size_t i = 0; i < windows_.size(); ++i) {
    const Window& w = windows_[i];
    os << (i > 0 ? "," : "") << "{\"kind\":" << Quote(w.kind)
       << ",\"start_us\":" << w.start_us << ",\"end_us\":" << w.end_us
       << ",\"traced\":" << (w.traced ? "true" : "false") << '}';
  }
  os << "],\"notes\":";
  Array(os, notes_, Quote);
  os << ",\"span_names\":";
  Array(os, Trace::Names(), Quote);
  os << ",\"spans\":";
  Array(os, Trace::Spans(), [](const Trace::Span& s) {
    std::ostringstream row;
    row << '[' << s.id << ',' << s.parent << ',' << s.request << ','
        << s.name << ',' << s.start_ns << ',' << s.end_ns << ']';
    return row.str();
  });
  os << "}\n";
  return static_cast<bool>(os);
}

// ---- Process probes --------------------------------------------------------

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoll(line.substr(8));
  }
  return 0;
}

}  // namespace perfbench
