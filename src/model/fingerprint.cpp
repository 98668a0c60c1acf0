#include "model/fingerprint.hpp"

#include <charconv>

namespace sspred::model {

std::uint64_t hash_bytes(std::string_view bytes) noexcept {
  // FNV-1a 64.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  // splitmix64 finalizer.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

void Fingerprint::sep() {
  if (!key_.empty()) key_ += '|';
}

Fingerprint& Fingerprint::tag(std::string_view t) {
  sep();
  key_ += '#';  // tags and fields can never collide textually
  key_.append(t);
  return *this;
}

Fingerprint& Fingerprint::field(std::string_view name, std::uint64_t v) {
  sep();
  key_.append(name);
  key_ += '=';
  key_ += 'u';
  key_ += std::to_string(v);
  return *this;
}

Fingerprint& Fingerprint::field(std::string_view name, std::int64_t v) {
  sep();
  key_.append(name);
  key_ += '=';
  key_ += 'i';
  key_ += std::to_string(v);
  return *this;
}

Fingerprint& Fingerprint::field(std::string_view name, double v) {
  sep();
  key_.append(name);
  key_ += "=f";
  // printf's "%.17g" text, without stdio's locale and format parsing.
  char buf[32];  // the longest text, "-2.2250738585072014e-308", is 24
  char* const end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17)
          .ptr;
  key_.append(buf, end);
  return *this;
}

Fingerprint& Fingerprint::field(std::string_view name, bool v) {
  sep();
  key_.append(name);
  key_ += '=';
  key_ += v ? "b1" : "b0";
  return *this;
}

Fingerprint& Fingerprint::field(std::string_view name, std::string_view v) {
  sep();
  key_.append(name);
  key_ += '=';
  key_ += 's';
  key_ += std::to_string(v.size());
  key_ += ':';
  key_.append(v);
  return *this;
}

std::uint64_t Fingerprint::hash() const noexcept { return hash_bytes(key_); }

}  // namespace sspred::model
