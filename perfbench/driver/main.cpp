// perfbench_driver — runs one benchmark workload against the program.
//
//   perfbench_driver sweep [options]   (see bench.hpp)
//   perfbench_driver serve [options]
//
// Exit code 0 means the measurement completed and its JSON was written;
// whether the program's outputs were correct is recorded inside the JSON.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "trace/parse.hpp"

namespace perfbench {

Options::Options(int argc, char** argv) {
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value, got '" + key + "'");
    }
    values_[key.substr(2)] = argv[i + 1];
  }
}

std::string Options::str(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

double Options::num(const std::string& key) const {
  const auto value = sss::trace::parse_double(str(key));
  if (!value.has_value()) throw std::invalid_argument("--" + key + " is not a number");
  return *value;
}

std::uint64_t Options::u64(const std::string& key) const {
  const auto value = sss::trace::parse_uint64(str(key));
  if (!value.has_value()) throw std::invalid_argument("--" + key + " is not an integer");
  return *value;
}

std::vector<std::string> Options::list(const std::string& key) const {
  std::vector<std::string> items;
  const std::string text = str(key);
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    items.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return items;
}

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

long peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

void reset_peak_rss() {
  // "5" resets the peak RSS counter (Documentation/filesystems/proc.rst).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s sweep|serve --key value ...\n", argv[0]);
    return 2;
  }
  try {
    const perfbench::Options options(argc, argv);
    const std::string mode = argv[1];
    if (mode == "sweep") return perfbench::run_sweep(options);
    if (mode == "serve") return perfbench::run_serve(options);
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
