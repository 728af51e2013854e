#include "obs/resource.h"

#include <dirent.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "obs/snapshot.h"

namespace cny::obs {

namespace {

/// Reads a whole (small) file into a string. /proc files report st_size 0,
/// so this reads in chunks rather than trusting a stat().
bool read_small_file(const char* path, std::string& out) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return false;
  out.clear();
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok && !out.empty();
}

/// Parses the leading unsigned integer of `text` (after optional spaces
/// and tabs). Returns 0 when no digits are present.
std::uint64_t leading_u64(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  std::uint64_t value = 0;
  for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
    value = value * 10 + static_cast<std::uint64_t>(text[i] - '0');
  }
  return value;
}

std::uint64_t count_open_fds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::uint64_t count = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    ++count;
  }
  closedir(dir);
  // The directory stream itself holds one descriptor while we count.
  if (count > 0) --count;
  return count;
}

std::uint64_t wall_ms_now() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::uint64_t mono_us_now() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void parse_status_text(std::string_view text, ResourceUsage& usage) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    if (line.rfind("VmRSS:", 0) == 0) {
      usage.rss_kb = leading_u64(line.substr(6));
    } else if (line.rfind("VmHWM:", 0) == 0) {
      usage.vm_hwm_kb = leading_u64(line.substr(6));
    } else if (line.rfind("Threads:", 0) == 0) {
      usage.threads = leading_u64(line.substr(8));
    }
    pos = eol + 1;
  }
}

void parse_stat_text(std::string_view text, long ticks_per_s,
                     ResourceUsage& usage) {
  if (ticks_per_s <= 0) ticks_per_s = 100;
  // The comm field (2) is parenthesised and may contain spaces and ')', so
  // field counting must start after the *last* ')'.
  const std::size_t close = text.rfind(')');
  if (close == std::string_view::npos) return;
  std::string_view rest = text.substr(close + 1);
  // rest now starts at field 3 ("state"); utime/stime are fields 14/15.
  std::uint64_t utime_ticks = 0;
  std::uint64_t stime_ticks = 0;
  int field = 2;  // fields consumed so far (pid, comm)
  std::size_t i = 0;
  while (i < rest.size()) {
    while (i < rest.size() && rest[i] == ' ') ++i;
    const std::size_t start = i;
    while (i < rest.size() && rest[i] != ' ') ++i;
    if (i == start) break;
    ++field;
    if (field == 14) {
      utime_ticks = leading_u64(rest.substr(start, i - start));
    } else if (field == 15) {
      stime_ticks = leading_u64(rest.substr(start, i - start));
      break;
    }
  }
  usage.cpu_user_ms = utime_ticks * 1000 / static_cast<std::uint64_t>(ticks_per_s);
  usage.cpu_sys_ms = stime_ticks * 1000 / static_cast<std::uint64_t>(ticks_per_s);
}

ResourceUsage sample_resources() {
  ResourceUsage usage;
  std::string text;
  if (!read_small_file("/proc/self/status", text)) return usage;
  parse_status_text(text, usage);
  if (!read_small_file("/proc/self/stat", text)) return usage;
  parse_stat_text(text, sysconf(_SC_CLK_TCK), usage);
  usage.open_fds = count_open_fds();
  usage.ok = true;
  return usage;
}

void refresh_resource_gauges(Registry* registry) {
  const ResourceUsage usage = sample_resources();
  if (!usage.ok) return;
  Registry& r = registry != nullptr ? *registry : Registry::global();
  r.gauge("process.rss_kb").set(static_cast<std::int64_t>(usage.rss_kb));
  r.gauge("process.vm_hwm_kb").set(static_cast<std::int64_t>(usage.vm_hwm_kb));
  r.gauge("process.cpu_user_ms")
      .set(static_cast<std::int64_t>(usage.cpu_user_ms));
  r.gauge("process.cpu_sys_ms")
      .set(static_cast<std::int64_t>(usage.cpu_sys_ms));
  r.gauge("process.threads").set(static_cast<std::int64_t>(usage.threads));
  r.gauge("process.open_fds").set(static_cast<std::int64_t>(usage.open_fds));
}

struct ResourceSampler::Impl {
  Options options;
  std::FILE* export_file = nullptr;
  std::mutex mutex;
  std::condition_variable cv;
  bool stopping = false;
  std::mutex tick_mutex;  ///< serialises sample_now() against the thread
  std::thread thread;
};

ResourceSampler::ResourceSampler(Options options)
    : impl_(std::make_unique<Impl>()) {
  if (options.interval_ms == 0) options.interval_ms = 1;
  impl_->options = std::move(options);
  if (!impl_->options.export_path.empty()) {
    impl_->export_file = std::fopen(impl_->options.export_path.c_str(), "w");
    if (impl_->export_file == nullptr) {
      throw std::runtime_error("cannot open snapshot export file: " +
                               impl_->options.export_path);
    }
  }
  tick();  // gauges are live from construction, not one interval later
  impl_->thread = std::thread([this] { run(); });
}

ResourceSampler::~ResourceSampler() {
  stop();
  if (impl_->export_file != nullptr) std::fclose(impl_->export_file);
}

void ResourceSampler::sample_now() { tick(); }

void ResourceSampler::stop() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  if (impl_->thread.joinable()) impl_->thread.join();
}

void ResourceSampler::run() {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  while (!impl_->stopping) {
    impl_->cv.wait_for(lock,
                       std::chrono::milliseconds(impl_->options.interval_ms));
    if (impl_->stopping) break;
    lock.unlock();
    tick();
    lock.lock();
  }
}

void ResourceSampler::tick() {
  const std::lock_guard<std::mutex> lock(impl_->tick_mutex);
  refresh_resource_gauges(impl_->options.registry);
  if (impl_->export_file == nullptr) return;
  TimedSnapshot snapshot;
  snapshot.wall_ms = wall_ms_now();
  snapshot.mono_us = mono_us_now();
  if (impl_->options.snapshot_source) {
    snapshot.metrics = impl_->options.snapshot_source();
  } else {
    Registry& r = impl_->options.registry != nullptr
                      ? *impl_->options.registry
                      : Registry::global();
    snapshot.metrics = r.snapshot();
  }
  const std::string line = snapshot_jsonl_line(snapshot);
  std::fprintf(impl_->export_file, "%s\n", line.c_str());
  std::fflush(impl_->export_file);
}

}  // namespace cny::obs
