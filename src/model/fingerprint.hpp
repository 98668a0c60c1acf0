// Canonical structural fingerprints.
//
// A structural model's identity — for the serving layer's program cache
// and for consistent-hash routing to a shard — is a *fingerprint* of
// everything that determines the compiled program (and nothing that
// doesn't, such as runtime load bindings). Before this helper the same
// serialization was hand-rolled in more than one place (model
// registration stamped one key, the program cache re-serialized
// another); Fingerprint is the one
// canonical builder both use, so two call sites can never drift into
// disagreeing about what "structurally identical" means.
//
// The fingerprint is injective over its inputs: string fields are
// length-prefixed so no choice of delimiters inside a value (a host name
// containing '|' or '=') can make two different field sequences collide,
// and doubles are rendered with 17 significant digits (round-trip exact
// for IEEE binary64). hash() is a 64-bit digest of the canonical string
// for cheap routing/bucketing; equality decisions always use str().
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace sspred::model {

/// 64-bit digest of a byte string: FNV-1a with a splitmix64 finalizer
/// (the FNV core alone mixes the low bits poorly; the finalizer makes the
/// digest usable directly as a hash-ring position). Deterministic across
/// runs and platforms.
[[nodiscard]] std::uint64_t hash_bytes(std::string_view bytes) noexcept;

/// Append-only canonical key builder: `tag(...)` names the kind,
/// `field(name, value)` appends one structural input. Field order is
/// significant (callers append in one fixed order).
class Fingerprint {
 public:
  /// Appends a bare tag ("sor", "block", ...).
  Fingerprint& tag(std::string_view t);

  Fingerprint& field(std::string_view name, std::uint64_t v);
  Fingerprint& field(std::string_view name, std::int64_t v);
  /// 17 significant digits: distinct doubles yield distinct fields.
  Fingerprint& field(std::string_view name, double v);
  Fingerprint& field(std::string_view name, bool v);
  /// Length-prefixed (`name=<len>:<bytes>`): injective for any value.
  Fingerprint& field(std::string_view name, std::string_view v);

  /// Convenience for the common integer kinds without caller-side casts.
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Fingerprint& field(std::string_view name, T v) {
    if constexpr (std::is_signed_v<T>) {
      return field(name, static_cast<std::int64_t>(v));
    } else {
      return field(name, static_cast<std::uint64_t>(v));
    }
  }

  /// Enums fingerprint as their underlying integer value.
  template <typename E>
    requires std::is_enum_v<E>
  Fingerprint& field(std::string_view name, E v) {
    return field(name,
                 static_cast<std::int64_t>(static_cast<std::underlying_type_t<E>>(v)));
  }

  /// The canonical key so far. Equal sequences of tag/field calls produce
  /// equal strings; distinct sequences produce distinct strings.
  [[nodiscard]] const std::string& str() const noexcept { return key_; }

  /// hash_bytes(str()): the routing/bucketing digest.
  [[nodiscard]] std::uint64_t hash() const noexcept;

 private:
  void sep();
  std::string key_;
};

}  // namespace sspred::model
