#pragma once
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

// Header-only, dependency-free binary encode/decode primitives shared by
// every layer's artifact serializer (netlist, sim, lint, layout, sta,
// power). Fixed little-endian layout independent of host struct padding,
// doubles stored as raw IEEE-754 bit patterns — a round trip is bit-exact
// by construction, which is what the on-disk artifact store's
// cold-path == warm-path guarantee rests on.

namespace syndcim::core {

/// Truncated or malformed binary payload. Decoders throw it on any
/// out-of-bounds read; the blob-store read path turns it into a
/// corrupt-object diagnostic instead of installing garbage.
class BinDecodeError : public std::runtime_error {
 public:
  explicit BinDecodeError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Appends fixed-layout fields to a byte string.
class BinWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw_le(v); }
  void u64(std::uint64_t v) { raw_le(v); }
  void i32(std::int32_t v) { raw_le(static_cast<std::uint32_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }
  void bytes(const void* data, std::size_t n) {
    out_.append(static_cast<const char*>(data), n);
  }

  [[nodiscard]] const std::string& data() const { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }
  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  template <typename U>
  void raw_le(U v) {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  std::string out_;
};

/// Bounds-checked reader over an encoded payload. Every accessor throws
/// BinDecodeError instead of reading past the end, so truncated objects
/// fail loudly and atomically (nothing is half-installed).
class BinReader {
 public:
  explicit BinReader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  [[nodiscard]] std::uint32_t u32() { return raw_le<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return raw_le<std::uint64_t>(); }
  [[nodiscard]] std::int32_t i32() {
    return static_cast<std::int32_t>(raw_le<std::uint32_t>());
  }
  [[nodiscard]] bool b() { return u8() != 0; }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  [[nodiscard]] std::string str() { return std::string(str_view()); }
  /// Like str(), but a view into the payload (valid while it lives).
  [[nodiscard]] std::string_view str_view() {
    const std::uint32_t n = u32();
    need(n);
    const std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  /// Length prefix for a container about to be decoded element-wise.
  /// `min_elem_bytes` bounds a hostile length against the bytes actually
  /// remaining, so a corrupt count cannot drive a multi-gigabyte reserve.
  [[nodiscard]] std::uint32_t len(std::size_t min_elem_bytes = 1) {
    const std::uint32_t n = u32();
    if (min_elem_bytes > 0 &&
        static_cast<std::uint64_t>(n) * min_elem_bytes > remaining()) {
      throw BinDecodeError("length prefix exceeds payload");
    }
    return n;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }
  /// Decoders call this last: trailing bytes mean the payload was written
  /// by a different (newer) encoding and must not be half-trusted.
  void expect_end() const {
    if (!at_end()) throw BinDecodeError("trailing bytes after payload");
  }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) throw BinDecodeError("truncated payload");
  }
  template <typename U>
  U raw_le() {
    need(sizeof(U));
    U v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<U>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(U);
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Deep-bytes helpers for the ArtifactTierStats accounting hooks: the
/// real heap footprint of common payload shapes (sizes, not capacities,
/// so the number is deterministic across allocation histories).
[[nodiscard]] inline std::size_t deep_str_bytes(const std::string& s) {
  return s.size();
}
template <typename T>
[[nodiscard]] std::size_t deep_vec_bytes(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}

}  // namespace syndcim::core
