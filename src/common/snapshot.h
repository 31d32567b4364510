// Versioned little-endian byte encoding for whole-engine checkpoints.
//
// Every stateful engine (the four flat dist engines, the hierarchical
// shard engine, and core::dolbie_policy) serializes its cross-round state
// through the writer below and restores it through the reader, so a
// process can be killed at any round boundary and resumed bit-identically
// from the bytes alone (tests/checkpoint_test.cpp). The format is the
// moral sibling of the wire codec in net/codec.h and inherits its
// hostility rule: snapshot bytes come from disk, and disks lie — decode
// treats truncated, oversized, version-mismatched or non-finite input as
// corruption and throws invariant_error instead of handing garbage to an
// engine.
//
// Layout conventions:
//   * all integers little-endian, fixed width (u8/u16/u32/u64);
//   * f64 as IEEE-754 bit patterns — finite-only by default; the
//     f64_or_inf variants admit +infinity for the one legitimate use
//     (an unset Eq. 7 carry cap) while still rejecting NaN and -inf;
//   * every snapshot opens with the common header (magic, version, the
//     producing engine's kind, its worker count) so bytes can never be
//     restored into the wrong engine shape;
//   * readers must consume every byte (finish()) — trailing bytes are
//     corruption, exactly like the wire codec's oversized buffers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dolbie {

/// Append-only little-endian encoder for snapshot bytes.
class snapshot_writer {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Finite scalars only (costs, shares, step sizes) — a non-finite value
  /// in engine state is a bug, caught at serialization time.
  void f64(double v);
  /// Admits +infinity (sentinel for "no cap yet"); NaN / -inf still throw.
  void f64_or_inf(double v);
  /// Append a raw, already-encoded byte run (length-prefixed by caller).
  void raw(const std::uint8_t* data, std::size_t size);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked decoder over a snapshot byte buffer. Every accessor
/// throws invariant_error on truncation; f64 rejects non-finite values.
class snapshot_reader {
 public:
  snapshot_reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit snapshot_reader(const std::vector<std::uint8_t>& bytes)
      : snapshot_reader(bytes.data(), bytes.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  double f64_or_inf();
  /// Consume `size` raw bytes (throws when fewer remain).
  const std::uint8_t* raw(std::size_t size);

  std::size_t remaining() const { return size_ - pos_; }
  /// Every byte must have been consumed; trailing bytes are corruption.
  void finish() const;
  /// Guard an element count read from the wire against the bytes that
  /// could possibly back it (each element costs >= `min_bytes`), bounding
  /// what a corrupted count field can make the caller allocate.
  void require_count(std::uint64_t count, std::size_t min_bytes) const;

 private:
  std::uint64_t take(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// First bytes of every snapshot: "DLBS" little-endian.
inline constexpr std::uint32_t kSnapshotMagic = 0x53424C44u;
/// Bumped on any layout change; restore rejects every other version.
inline constexpr std::uint16_t kSnapshotVersion = 2;

/// Which engine produced a snapshot. Restore rejects a kind mismatch, so
/// e.g. FD bytes can never be poured into an MW engine.
enum class snapshot_kind : std::uint8_t {
  dolbie_policy = 0,
  master_worker = 1,
  fully_distributed = 2,
  async_master_worker = 3,
  async_fully_distributed = 4,
  hierarchical = 5,
  /// Harness-level container wrapping an engine snapshot plus the partial
  /// run accounting (exp/chaos kill/restore round-trip).
  chaos_checkpoint = 6,
};

/// Write the common header: magic, version, kind, worker count.
void write_snapshot_header(snapshot_writer& w, snapshot_kind kind,
                           std::uint64_t workers);

/// Validate the common header against the restoring engine's identity.
/// Throws invariant_error on bad magic, version mismatch, wrong kind or
/// wrong worker count.
void read_snapshot_header(snapshot_reader& r, snapshot_kind kind,
                          std::uint64_t workers);

}  // namespace dolbie
