//===- support/Arena.cpp - Fixed-capacity bump byte arena -----------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"

#include "support/Align.h"

#include <new>
#include <sys/mman.h>
#include <unistd.h>

using namespace smokestack;

namespace {

uint64_t pageSize() {
  static const uint64_t Page = [] {
    long P = sysconf(_SC_PAGESIZE);
    return P > 0 ? static_cast<uint64_t>(P) : uint64_t(4096);
  }();
  return Page;
}

} // namespace

ByteArena::ByteArena(uint64_t Capacity) : Cap(Capacity), TouchedLo(Capacity) {
  uint64_t Page = pageSize();
  uint64_t Body = alignTo(Capacity, Page);
  if (Body < Capacity || Body > UINT64_MAX - 2 * Page)
    throw std::bad_alloc();
  // Reserve guard + body + guard inaccessible, then open the body: two
  // system calls, and no page is populated until it is first touched.
  MappingBytes = Body + 2 * Page;
  void *P = mmap(nullptr, MappingBytes, PROT_NONE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  Mapping = static_cast<uint8_t *>(P);
  if (Body && mprotect(Mapping + Page, Body, PROT_READ | PROT_WRITE) != 0) {
    munmap(Mapping, MappingBytes);
    throw std::bad_alloc();
  }
  Bytes = Mapping + Page + (Body - Capacity);
}

ByteArena::~ByteArena() { munmap(Mapping, MappingBytes); }
