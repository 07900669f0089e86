// Shared helpers for the benchmark harnesses: aligned table printing
// in the style of the paper's figures, and standard banner output so
// every bench identifies which paper artifact it regenerates.
#ifndef VELOX_BENCH_BENCH_UTIL_H_
#define VELOX_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

// Set per target by bench/CMakeLists.txt.
#ifndef VELOX_BENCH_BUILD_TYPE
#define VELOX_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef VELOX_BENCH_COMPILER
#define VELOX_BENCH_COMPILER "unknown"
#endif

namespace velox::bench {

// Smoke mode (VELOX_BENCH_SMOKE=1): CI builds every bench binary and
// runs it at tiny sizes purely to prove each harness still executes
// end to end — numbers from a smoke run are meaningless.
inline bool SmokeMode() {
  const char* v = std::getenv("VELOX_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

// Full-size workload normally, `smoke` iterations under smoke mode.
inline int SmokeScaled(int full, int smoke = 50) {
  return SmokeMode() ? smoke : full;
}

inline void Banner(const std::string& title, const std::string& paper_ref,
                   const std::string& notes) {
  std::printf("==========================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  if (!notes.empty()) std::printf("%s\n", notes.c_str());
  std::printf("==========================================================================\n");
}

// Fixed-width row printer: header once, then rows of equal arity.
class Table {
 public:
  explicit Table(std::vector<std::string> columns, int width = 14)
      : columns_(std::move(columns)), width_(width) {
    for (const auto& c : columns_) std::printf("%*s", width_, c.c_str());
    std::printf("\n");
    for (size_t i = 0; i < columns_.size(); ++i) {
      for (int j = 0; j < width_; ++j) std::printf("-");
    }
    std::printf("\n");
  }

  void Row(const std::vector<std::string>& cells) {
    for (const auto& c : cells) std::printf("%*s", width_, c.c_str());
    std::printf("\n");
    std::fflush(stdout);
  }

 private:
  std::vector<std::string> columns_;
  int width_;
};

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

inline std::string FmtInt(long long v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%lld", v);
  return buf;
}

// Machine-readable results: accumulates flat rows of (key, value)
// pairs and writes {"bench": <name>, "provenance": {...}, "rows":
// [{...}, ...]} to a BENCH_<name>.json file, so successive PRs can diff
// perf trajectories instead of scraping stdout tables. The provenance
// names the build type, compiler, CPU count, smoke flag and the git sha
// exported as VELOX_GIT_SHA ("unknown" when unset).
class JsonRows {
 public:
  JsonRows(std::string bench_name, std::string path)
      : bench_name_(std::move(bench_name)), path_(std::move(path)) {}

  // JSON-encoded values for Row().
  static std::string Num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
  }
  static std::string Num(long long v) { return FmtInt(v); }
  static std::string Str(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  }

  // `fields` values must already be JSON-encoded (use Num/Str).
  void Row(const std::vector<std::pair<std::string, std::string>>& fields) {
    std::string row = "    {";
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) row += ", ";
      row += Str(fields[i].first) + ": " + fields[i].second;
    }
    row += "}";
    rows_.push_back(std::move(row));
  }

  // Attaches a named top-level section whose value is already a JSON
  // document (e.g. VeloxServer::StageBreakdownJson()). Sections land
  // after "rows" in insertion order; setting a key again replaces it.
  void Section(const std::string& key, std::string raw_json) {
    for (auto& [k, v] : sections_) {
      if (k == key) {
        v = std::move(raw_json);
        return;
      }
    }
    sections_.emplace_back(key, std::move(raw_json));
  }

  // Writes the accumulated rows; returns false (with a note on stderr)
  // if the file cannot be opened.
  bool Write() const {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": %s,\n  \"provenance\": %s,\n  \"rows\": [\n",
                 Str(bench_name_).c_str(), Provenance().c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]");
    for (const auto& [key, raw] : sections_) {
      std::fprintf(f, ",\n  %s: %s", Str(key).c_str(), raw.c_str());
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path_.c_str(), rows_.size());
    return true;
  }

 private:
  static std::string Provenance() {
    const char* sha = std::getenv("VELOX_GIT_SHA");
    return "{\"build_type\": " + Str(VELOX_BENCH_BUILD_TYPE) +
           ", \"compiler\": " + Str(VELOX_BENCH_COMPILER) +
           ", \"nproc\": " + Num(static_cast<long long>(std::thread::hardware_concurrency())) +
           ", \"smoke\": " + (SmokeMode() ? "true" : "false") +
           ", \"git_sha\": " + Str(sha != nullptr && *sha != '\0' ? sha : "unknown") + "}";
  }

  std::string bench_name_;
  std::string path_;
  std::vector<std::string> rows_;
  std::vector<std::pair<std::string, std::string>> sections_;
};

}  // namespace velox::bench

#endif  // VELOX_BENCH_BENCH_UTIL_H_
