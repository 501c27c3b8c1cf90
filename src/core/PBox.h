//===- core/PBox.h - Permutation box ---------------------------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The P-BOX (paper Section III-C/III-E): read-only tables holding, for
/// every unique stack-frame signature in the program, the precomputed
/// offsets of each allocation under every permutation. At each function
/// invocation the prologue indexes the function's table with a random number
/// to pick that invocation's layout.
///
/// The three paper optimizations are individually toggleable for the
/// ablation benchmark:
///  - PowerOfTwoRows: pad the row count to a power of two so index
///    selection is a bit-mask instead of a modulo;
///  - ShareByMultiset: functions whose allocations are a permutation of one
///    another (e.g. f1(int,double) / f2(double,int)) share one table;
///  - RoundUpSharing: a frame that differs from an existing one by a single
///    trailing primitive borrows the bigger table, trading padding for
///    memory.
///
/// Frames with more allocations than MaxExhaustiveSlots would need N! rows;
/// the table instead stores SampledRows uniformly drawn permutations
/// (documented substitution — same per-invocation randomization, bounded
/// memory).
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_CORE_PBOX_H
#define SMOKESTACK_CORE_PBOX_H

#include "core/PermutationEngine.h"

#include <cassert>
#include <map>
#include <memory>
#include <span>

namespace smokestack {

/// Build-time configuration of the P-BOX.
struct PBoxOptions {
  bool PowerOfTwoRows = true;
  bool ShareByMultiset = true;
  bool RoundUpSharing = true;
  /// Largest allocation count for which all N! permutations are enumerated.
  unsigned MaxExhaustiveSlots = 8;
  /// Rows sampled for larger allocation sets (kept a power of two).
  uint64_t SampledRows = 4096;
  /// Seed for the compile-time row shuffle (the paper permutes table rows
  /// to break the lexical correlation between adjacent rows).
  uint64_t ShuffleSeed = 0xb0c5'5eed;
};

/// One P-BOX table: NumRows layouts over NumSlots canonical slots.
///
/// Construction plans the table's shape, so its byte size is known before
/// any row exists; fill() then builds the rows into storage the caller
/// provides. The pass fills every table in place in the P-BOX global's
/// initializer (PBox::build), and a FrameDescriptor into rows it owns, so
/// each row is written exactly once.
class PBoxTable {
public:
  /// Plans \p Sig's table: every permutation up to Opts.MaxExhaustiveSlots
  /// slots, Opts.SampledRows seeded samples past it; shuffled with
  /// \p ShuffleSeed and padded per Opts.PowerOfTwoRows.
  PBoxTable(AllocationSignature Sig, const PBoxOptions &Opts,
            uint64_t ShuffleSeed);

  /// A table views the rows it filled, so a copy would alias its source's
  /// storage; a move keeps the view valid whenever the storage moves with
  /// it (a moved std::vector keeps its buffer).
  PBoxTable(PBoxTable &&) = default;
  PBoxTable(const PBoxTable &) = delete;
  PBoxTable &operator=(const PBoxTable &) = delete;

  /// Builds the planned rows straight into \p Dest (numRows() * numSlots()
  /// host-order u32s, i.e. byteSize() bytes) and reads them from there
  /// from now on, so \p Dest must outlive every row read. Rows of the
  /// pass's P-BOX and of native frames are built here and nowhere else.
  void fill(uint32_t *Dest);

  const AllocationSignature &signature() const { return Sig; }
  unsigned numSlots() const { return NumSlots; }
  uint64_t numRows() const { return NumRows; }

  /// Nonzero mask when NumRows is a power of two (row = rand & mask).
  uint64_t rowMask() const { return RowMask; }

  /// Bytes of one row in the serialized form (NumSlots * 4).
  uint64_t rowStride() const { return uint64_t(NumSlots) * 4; }

  /// Frame bytes sufficient for every row, 16-byte aligned (set by fill).
  uint64_t frameSize() const {
    assert(Rows && "the frame size is known once the rows are built");
    return FrameSize;
  }

  /// Offset of canonical slot \p Slot in row \p Row.
  uint32_t offsetAt(uint64_t Row, unsigned Slot) const {
    return Rows[Row * NumSlots + Slot];
  }

  /// Serialized size in bytes, known from the plan.
  uint64_t byteSize() const { return NumRows * rowStride(); }

  /// Raw row-major offsets (little-endian u32 each when serialized).
  std::span<const uint32_t> flat() const {
    assert(Rows && "the table's rows are not built yet");
    return {Rows, NumRows * NumSlots};
  }

private:
  AllocationSignature Sig;
  unsigned NumSlots;
  bool Exhaustive;
  uint64_t RealRows;
  uint64_t NumRows;
  uint64_t RowMask = 0;
  uint64_t FrameSize = 0;
  /// Seed of the large-set row sampler (unused by exhaustive tables).
  uint64_t SamplerSeed;
  uint64_t ShuffleSeed;
  const uint32_t *Rows = nullptr;
};

/// The program-wide collection of shared P-BOX tables.
class PBox {
public:
  explicit PBox(PBoxOptions Opts = PBoxOptions()) : Opts(Opts) {}

  /// Returns the table id serving \p Slots, creating or sharing per the
  /// configured optimizations. The canonical mapping for the function is
  /// returned through \p OutSig.
  unsigned assignTable(const std::vector<AllocationSlot> &Slots,
                       AllocationSignature &OutSig);

  const PBoxTable &table(unsigned Id) const { return *Tables[Id]; }
  size_t numTables() const { return Tables.size(); }

  /// Total serialized size of all tables — the paper's memory overhead.
  /// Known from the plan, before any row is built.
  uint64_t totalBytes() const;

  /// Builds every table's rows in place in one read-only blob of
  /// totalBytes() bytes; \p TableByteOffsets[i] receives the byte offset of
  /// table i within it. This is the only write of the rows: the tables read
  /// them from the blob afterwards, so the blob must outlive every row read
  /// (moving it keeps its bytes in place — the pass moves it into the P-BOX
  /// global, which VMs then map without copying).
  [[nodiscard]] std::vector<uint8_t>
  build(std::vector<uint64_t> &TableByteOffsets);

  const PBoxOptions &options() const { return Opts; }

  /// Number of table-assignment requests answered by sharing an existing
  /// table (statistics for the ablation study).
  uint64_t shareHits() const { return ShareHits; }

private:
  unsigned createTable(const AllocationSignature &Sig);

  PBoxOptions Opts;
  std::vector<std::unique_ptr<PBoxTable>> Tables;
  /// Exact-signature lookup. With ShareByMultiset the key is the canonical
  /// multiset; without it, distinct original orders get distinct entries
  /// (keyed by a per-request sequence id appended below).
  std::map<std::vector<std::pair<uint64_t, uint64_t>>, unsigned> BySignature;
  uint64_t ShareHits = 0;
};

} // namespace smokestack

#endif // SMOKESTACK_CORE_PBOX_H
