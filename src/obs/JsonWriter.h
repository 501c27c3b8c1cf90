//===- obs/JsonWriter.h - Streaming JSON writer -----------------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON emitter behind every bench file and the metrics export.
/// Containers open in one of two layouts:
///
///   Block:  one member per line, indented two spaces per nesting level,
///           the closing bracket on its own line; an empty block
///           container prints as `{}` / `[]`.
///   Inline: `{"a": 1, "b": 2}` on the current line. Everything nested
///           inside an inline container is inline too.
///
/// So a block array of inline objects gives the familiar one-row-per-line
/// table shape, and a writer handed to MetricsRegistry::exportJson nests
/// the metrics object at the right depth with no re-indenting.
///
/// Values are escaped strings (`"` and `\` backslash-escaped, control
/// characters as \u00XX), unsigned integers, booleans, fixed-precision
/// doubles (`%.Nf`; non-finite values print as null), and 64-bit digests
/// as zero-padded 16-digit hex strings. Misuse (a value without a key in
/// an object, unbalanced containers) is a programming error and asserts.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_OBS_JSONWRITER_H
#define SMOKESTACK_OBS_JSONWRITER_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace smokestack {

class JsonWriter {
public:
  enum class Layout { Block, Inline };

  JsonWriter &beginObject(Layout L = Layout::Block);
  JsonWriter &endObject();
  JsonWriter &beginArray(Layout L = Layout::Block);
  JsonWriter &endArray();

  /// Names the next value; only valid directly inside an object.
  JsonWriter &key(std::string_view Name);

  JsonWriter &str(std::string_view S);
  JsonWriter &integer(uint64_t V);
  JsonWriter &boolean(bool B);
  /// \p V printed with exactly \p Digits fractional digits.
  JsonWriter &fixed(double V, int Digits);
  /// \p V as a 16-digit zero-padded hex string, "0x"-prefixed by default.
  JsonWriter &hex(uint64_t V, bool Prefix = true);

  /// The finished document plus a trailing newline. Every container must
  /// be closed.
  std::string take();
  /// Writes take() to \p Path; false when the file cannot be written.
  bool writeFile(const std::string &Path);

private:
  /// \p S with `"` and `\` backslash-escaped and control characters as
  /// \u00XX, ready to sit between quotes.
  static std::string escape(std::string_view S);

  struct Frame {
    bool IsObject = false;
    bool Inline = false;
    bool Empty = true;
  };

  /// Separator, newline and indentation before the top container's next
  /// member or element.
  void separate();
  /// separate() for a value, unless a key() already placed it.
  void beginValue();
  /// Places one already-formatted scalar.
  JsonWriter &raw(std::string_view Text);
  JsonWriter &open(char Bracket, bool IsObject, Layout L);
  JsonWriter &close(char Bracket);

  std::string Out;
  std::vector<Frame> Stack;
  bool KeyPending = false;
};

} // namespace smokestack

#endif // SMOKESTACK_OBS_JSONWRITER_H
