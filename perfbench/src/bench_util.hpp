// Shared helpers of perfbench_driver: clocks, percentiles, the result
// record, and the in-memory span tracer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank percentile (p in [0, 1]) of `v`; reorders `v`. 0 when empty.
inline double percentile(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return static_cast<double>(v[idx]);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// FNV-1a, the benchmark's own reply digest (independent of the program's).
inline std::uint64_t fnv1a(std::uint64_t index, std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (index >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Named metrics with units, printed as "metric <name> <value> <unit>"
/// record lines and as the final JSON object.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    auto it = std::find_if(items_.begin(), items_.end(),
                           [&](const Item& i) { return i.name == name; });
    if (it == items_.end()) {
      items_.push_back({name, value, unit});
    } else {
      it->value = value;
      it->unit = unit;
    }
  }
  double get(const std::string& name) const {
    for (const Item& i : items_) {
      if (i.name == name) return i.value;
    }
    return 0;
  }
  void print_lines(const char* prefix) const {
    for (const Item& i : items_) {
      std::printf("%s %s %.6g %s\n", prefix, i.name.c_str(), i.value,
                  i.unit.c_str());
    }
  }
  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  void print_json(bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", items_[i].name.c_str(), items_[i].value,
                  items_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// One recorded span: a timed call into a layer, made by benchmark code.
struct Span {
  const char* name;        ///< static string, e.g. "client.I"
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t id;        ///< unique within the run (0 = none)
  std::uint64_t parent;    ///< id of the causing span, 0 for roots
  std::uint64_t request;   ///< request index the span belongs to
};

/// In-memory span store. Each recording thread owns one Buffer (no locks on
/// the hot path); buffers are merged and written out when the run ends.
/// Disabled tracers record nothing.
class Tracer {
 public:
  class Buffer {
   public:
    std::uint64_t record(const char* name, std::uint64_t start,
                         std::uint64_t end, std::uint64_t parent = 0,
                         std::uint64_t request = 0) {
      if (!on_) return 0;
      if (spans_.size() >= cap_) {
        ++dropped_;
        return 0;
      }
      const std::uint64_t id = (tag_ << 40) | (spans_.size() + 1);
      spans_.push_back({name, start, end, id, parent, request});
      return id;
    }
    /// Sets the end time of span `id` from this buffer (a root span opened
    /// before its children).
    void finish(std::uint64_t id, std::uint64_t end) {
      const std::uint64_t idx = id & ((1ull << 40) - 1);
      if (id != 0 && idx >= 1 && idx <= spans_.size()) spans_[idx - 1].end_ns = end;
    }
   private:
    friend class Tracer;
    bool on_ = false;
    std::uint64_t tag_ = 0;
    std::size_t cap_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<Span> spans_;
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// A new buffer for one thread; the tracer keeps ownership.
  Buffer& buffer(std::size_t reserve = 1 << 16) {
    std::lock_guard lock(mu_);
    buffers_.emplace_back();
    Buffer& b = buffers_.back();
    b.on_ = on_;
    b.tag_ = buffers_.size();
    b.cap_ = kMaxSpansPerBuffer;
    if (on_) b.spans_.reserve(std::min(reserve, kMaxSpansPerBuffer));
    return b;
  }

  /// Durations (ns) of every span named `name`.
  std::vector<std::uint64_t> durations(std::string_view name) const {
    std::vector<std::uint64_t> out;
    for (const Buffer& b : buffers_) {
      for (const Span& s : b.spans_) {
        if (name == s.name) out.push_back(s.end_ns - s.start_ns);
      }
    }
    return out;
  }

  std::uint64_t span_count() const {
    std::uint64_t n = 0;
    for (const Buffer& b : buffers_) n += b.spans_.size();
    return n;
  }
  std::uint64_t dropped() const {
    std::uint64_t n = 0;
    for (const Buffer& b : buffers_) n += b.dropped_;
    return n;
  }

  /// Writes every span as TSV: id, parent, request, name, start, end.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for (const Buffer& b : buffers_) {
      for (const Span& s : b.spans_) {
        std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%llu\t%llu\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request), s.name,
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  static constexpr std::size_t kMaxSpansPerBuffer = 4u << 20;
  bool on_;
  std::mutex mu_;
  std::deque<Buffer> buffers_;  // deque: handed-out references stay valid
};

/// CPU time the hypervisor gave to other guests (the "steal" column of
/// /proc/stat), in clock ticks summed over all CPUs; 0 when unreadable.
inline std::uint64_t host_steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

/// Parses "STATS k=v k=v ..." into a map (non-numeric values skipped).
inline std::map<std::string, double> parse_stats(const std::string& line) {
  std::map<std::string, double> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ') ++j;
    const std::string tok = line.substr(i, j - i);
    const std::size_t eq = tok.find('=');
    if (eq != std::string::npos) {
      char* end = nullptr;
      const double v = std::strtod(tok.c_str() + eq + 1, &end);
      if (end && *end == '\0') out[tok.substr(0, eq)] = v;
    }
    i = j;
  }
  return out;
}

}  // namespace perfbench
