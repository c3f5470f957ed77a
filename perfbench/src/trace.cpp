#include "trace.hpp"

#include <cstdio>
#include <memory>

namespace perfbench {
namespace {

/// JSON string escaping for the few characters span names may hold.
std::string escaped(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::uint32_t Trace::thread_index() {
  const auto [it, inserted] = threads_.emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(threads_.size()));
  (void)inserted;
  return it->second;
}

std::uint64_t Trace::record(std::string name, std::string cat,
                            Clock::time_point start, Clock::time_point end,
                            std::uint64_t parent, std::uint64_t request,
                            long rows) {
  std::lock_guard lock(mutex_);
  Span span;
  span.name = std::move(name);
  span.cat = std::move(cat);
  span.start = start;
  span.end = end;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.tid = thread_index();
  span.rows = rows;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> Trace::spans(const std::string& cat) const {
  std::lock_guard lock(mutex_);
  if (cat.empty()) return spans_;
  std::vector<Span> out;
  for (const Span& span : spans_)
    if (span.cat == cat) out.push_back(span);
  return out;
}

bool Trace::write_chrome(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!file) return false;
  std::FILE* out = file.get();
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::lock_guard lock(mutex_);
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (const Span& span : spans_) {
    const std::string name = escaped(span.name);
    const std::string cat = escaped(span.cat);
    char args[160];
    std::snprintf(args, sizeof(args),
                  "{\"span\":%llu,\"parent\":%llu,\"request\":%llu,\"rows\":%ld}",
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  static_cast<unsigned long long>(span.request), span.rows);
    if (span.request != 0) {
      // Nestable async pair: the spans of one request share its id.
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"b\",\"id\":%llu,"
                   "\"ts\":%.3f,\"pid\":1,\"tid\":%u,\"args\":%s},\n"
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"e\",\"id\":%llu,"
                   "\"ts\":%.3f,\"pid\":1,\"tid\":%u}",
                   first ? "" : ",\n", name.c_str(), cat.c_str(),
                   static_cast<unsigned long long>(span.request),
                   us(span.start), span.tid, args, name.c_str(), cat.c_str(),
                   static_cast<unsigned long long>(span.request), us(span.end),
                   span.tid);
    } else {
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":%s}",
                   first ? "" : ",\n", name.c_str(), cat.c_str(),
                   us(span.start), us(span.end) - us(span.start), span.tid,
                   args);
    }
    first = false;
  }
  std::fprintf(out, "\n],\"metadata\":{");
  for (std::size_t i = 0; i < metadata.size(); ++i) {
    std::fprintf(out, "%s\"%s\":\"%s\"", i == 0 ? "" : ",",
                 escaped(metadata[i].first).c_str(),
                 escaped(metadata[i].second).c_str());
  }
  std::fprintf(out, "}}\n");
  const bool written = std::ferror(out) == 0;
  return std::fclose(file.release()) == 0 && written;
}

}  // namespace perfbench
