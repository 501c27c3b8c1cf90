//===- obs/JsonWriter.cpp - Streaming JSON writer -------------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/JsonWriter.h"

#include "support/Format.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <utility>

using namespace smokestack;

std::string JsonWriter::escape(std::string_view S) {
  std::string Esc;
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    if (C == '"' || C == '\\') {
      Esc += '\\';
      Esc += C;
    } else if (U < 0x20) {
      Esc += formatString("\\u%04x", U);
    } else {
      Esc += C;
    }
  }
  return Esc;
}

void JsonWriter::separate() {
  Frame &F = Stack.back();
  if (F.Inline) {
    if (!F.Empty)
      Out += ", ";
  } else {
    Out += F.Empty ? "\n" : ",\n";
    Out.append(2 * Stack.size(), ' ');
  }
  F.Empty = false;
}

void JsonWriter::beginValue() {
  if (std::exchange(KeyPending, false) || Stack.empty())
    return;
  assert(!Stack.back().IsObject && "object members need a key()");
  separate();
}

JsonWriter &JsonWriter::key(std::string_view Name) {
  assert(!Stack.empty() && Stack.back().IsObject && !KeyPending &&
         "key() outside an object");
  separate();
  Out += '"' + escape(Name) + "\": ";
  KeyPending = true;
  return *this;
}

JsonWriter &JsonWriter::open(char Bracket, bool IsObject, Layout L) {
  bool Inline =
      L == Layout::Inline || (!Stack.empty() && Stack.back().Inline);
  raw({&Bracket, 1});
  Stack.push_back({IsObject, Inline});
  return *this;
}

JsonWriter &JsonWriter::close(char Bracket) {
  assert(!Stack.empty() && Stack.back().IsObject == (Bracket == '}') &&
         !KeyPending &&
         "unbalanced JSON container");
  Frame F = Stack.back();
  Stack.pop_back();
  if (!F.Inline && !F.Empty) {
    Out += '\n';
    Out.append(2 * Stack.size(), ' ');
  }
  Out += Bracket;
  return *this;
}

JsonWriter &JsonWriter::beginObject(Layout L) { return open('{', true, L); }
JsonWriter &JsonWriter::endObject() { return close('}'); }
JsonWriter &JsonWriter::beginArray(Layout L) { return open('[', false, L); }
JsonWriter &JsonWriter::endArray() { return close(']'); }

JsonWriter &JsonWriter::raw(std::string_view Text) {
  beginValue();
  Out += Text;
  return *this;
}

JsonWriter &JsonWriter::str(std::string_view S) {
  return raw('"' + escape(S) + '"');
}

JsonWriter &JsonWriter::integer(uint64_t V) {
  return raw(formatString("%llu", static_cast<unsigned long long>(V)));
}

JsonWriter &JsonWriter::boolean(bool B) { return raw(B ? "true" : "false"); }

JsonWriter &JsonWriter::fixed(double V, int Digits) {
  return raw(std::isfinite(V) ? formatString("%.*f", Digits, V) : "null");
}

JsonWriter &JsonWriter::hex(uint64_t V, bool Prefix) {
  return raw(formatString(Prefix ? "\"0x%016llx\"" : "\"%016llx\"",
                          static_cast<unsigned long long>(V)));
}

std::string JsonWriter::take() {
  assert(Stack.empty() && !KeyPending && "unclosed JSON container");
  Out += '\n';
  std::string Doc = std::move(Out);
  Out.clear();
  return Doc;
}

bool JsonWriter::writeFile(const std::string &Path) {
  std::string Doc = take();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Doc.data(), 1, Doc.size(), F) == Doc.size();
  return std::fclose(F) == 0 && Ok;
}
