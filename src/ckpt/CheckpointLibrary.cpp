//===- ckpt/CheckpointLibrary.cpp - Shared COW checkpoint library --------===//

#include "ckpt/CheckpointLibrary.h"

#include "isa/Serialize.h"
#include "sim/Interpreter.h"
#include "support/ByteCodec.h"
#include "telemetry/Counters.h"

#include <algorithm>
#include <unordered_map>

using namespace bor;
using namespace bor::ckpt;

namespace {

// Bumped whenever the payload layout changes: images of any other version
// are rejected, so a stale on-disk cache rebuilds once.
constexpr uint32_t LibraryVersion = 3;
constexpr char LibraryTag[5] = "CKPL";
constexpr uint32_t MaxDeciderKindLen = 64;
constexpr uint32_t MaxDeciderWords = 64;

bool fail(std::string &Error, const std::string &Message) {
  Error = Message;
  return false;
}

bool isAllZero(const uint8_t *Data, uint64_t N) {
  for (uint64_t I = 0; I != N; ++I)
    if (Data[I] != 0)
      return false;
  return true;
}

} // namespace

CheckpointLibrary
CheckpointLibrary::build(const DecodedProgram &DP, const BrrUnitConfig &Brr,
                         const BuildOptions &Options,
                         const telemetry::TelemetrySink *Telemetry) {
  assert(Options.EveryInsts > 0 && "checkpoint period must be positive");
  CheckpointLibrary Lib;
  Lib.PeriodInsts = Options.EveryInsts;

  telemetry::TraceWriter *TW = Telemetry ? Telemetry->Trace : nullptr;
  telemetry::TraceSpan Span(
      TW, "ckpt-build", "ckpt",
      {telemetry::TraceArg::num("period_insts", Options.EveryInsts)});

  Machine M;
  BrrUnitDecider Decider(Brr);
  Lib.DeciderKind = Decider.checkpointKind();
  // LoadImage=true: the interpreter resets memory and installs the data
  // segment, which is exactly checkpoint 0's state.
  Interpreter Fn(DP, M, Decider);

  PageStore Store;
  auto capture = [&](uint64_t Insts) {
    LibraryCheckpoint C;
    C.InstsRetired = Insts;
    C.Pc = M.pc();
    C.Halted = M.halted();
    for (unsigned R = 0; R != 32; ++R)
      C.Regs[R] = M.readReg(R);
    C.DeciderWords = Decider.checkpointWords();
    const uint64_t PageBytes = Memory::pageBytes();
    M.memory().forEachPage([&](uint64_t Base, const uint8_t *Data) {
      // Skip all-zero pages: a reset Machine reproduces them implicitly.
      if (isAllZero(Data, PageBytes))
        return;
      size_t Before = Store.numStoredPages();
      PageStore::PageRef P = Store.intern(Data);
      if (Store.numStoredPages() != Before)
        Lib.StorePages.push_back(P); // first-intern order = encoding order
      C.Pages.emplace_back(Base, std::move(P));
    });
    Lib.Checkpoints.push_back(std::move(C));
  };

  // The build pass runs from instruction 0, so the interpreter's private
  // count *is* the global index; markers record 1-based inclusive
  // positions, matching what the sampled runner's phases report.
  Fn.setMarkerHook([&](int32_t Id) {
    Lib.Markers.push_back({Id, Fn.stats().Insts + 1});
  });

  capture(0);
  while (!M.halted() && Fn.stats().Insts < Options.MaxInsts) {
    uint64_t Chunk =
        std::min(Options.EveryInsts, Options.MaxInsts - Fn.stats().Insts);
    Fn.run(Chunk, /*RequireHalt=*/false);
    // Full chunks end exactly on a period boundary (the engine honors its
    // budget precisely); a short final chunk captures the halt state.
    capture(Fn.stats().Insts);
  }

  Lib.TotalInsts = Fn.stats().Insts;
  Lib.StreamHalted = M.halted();
  Lib.DedupHits = Store.numDedupHits();

  Span.arg(telemetry::TraceArg::num("insts", Lib.TotalInsts));
  Span.arg(telemetry::TraceArg::num("checkpoints", Lib.Checkpoints.size()));
  Span.arg(telemetry::TraceArg::num("pages_stored", Lib.StorePages.size()));

  if (telemetry::CounterRegistry::enabled()) {
    static const telemetry::Counter Built("ckpt.libraries.built");
    static const telemetry::Counter BuildInsts("ckpt.build.insts");
    static const telemetry::Counter BuildCkpts("ckpt.build.checkpoints");
    static const telemetry::Counter PagesStored("ckpt.pages.stored");
    static const telemetry::Counter PagesDeduped("ckpt.pages.deduped");
    Built.add();
    BuildInsts.add(Lib.TotalInsts);
    BuildCkpts.add(Lib.Checkpoints.size());
    PagesStored.add(Lib.StorePages.size());
    PagesDeduped.add(Lib.DedupHits);
  }
  return Lib;
}

const LibraryCheckpoint *CheckpointLibrary::checkpointAt(uint64_t Insts) const {
  auto It = std::lower_bound(
      Checkpoints.begin(), Checkpoints.end(), Insts,
      [](const LibraryCheckpoint &C, uint64_t V) { return C.InstsRetired < V; });
  if (It == Checkpoints.end() || It->InstsRetired != Insts)
    return nullptr;
  return &*It;
}

const LibraryCheckpoint *
CheckpointLibrary::nearestAtOrBefore(uint64_t Insts) const {
  auto It = std::upper_bound(
      Checkpoints.begin(), Checkpoints.end(), Insts,
      [](uint64_t V, const LibraryCheckpoint &C) { return V < C.InstsRetired; });
  if (It == Checkpoints.begin())
    return nullptr;
  return &*(It - 1);
}

bool CheckpointLibrary::resume(const LibraryCheckpoint &C, Machine &M,
                               BrrDecider &Decider,
                               std::string &Error) const {
  if (DeciderKind != Decider.checkpointKind())
    return fail(Error, "library was built with decider '" + DeciderKind +
                           "' but resuming with '" +
                           Decider.checkpointKind() + "'");
  Decider.restoreCheckpointWords(C.DeciderWords);

  // Reset drops every stale page — owned or shared — from whatever ran on
  // this machine before; the attach then aliases the library's pages
  // read-only, so the resume copies nothing.
  M.memory().reset();
  for (const auto &[Base, P] : C.Pages)
    M.memory().attachShared(Base, P);
  for (unsigned R = 1; R != 32; ++R) // r0 is hardwired zero
    M.writeReg(R, C.Regs[R]);
  M.setPc(C.Pc);
  M.setHalted(C.Halted);
  return true;
}

std::vector<LibraryMarker> CheckpointLibrary::markersIn(uint64_t Lo,
                                                        uint64_t Hi) const {
  auto Cmp = [](uint64_t V, const LibraryMarker &M) {
    return V < M.GlobalInst;
  };
  auto First = std::upper_bound(Markers.begin(), Markers.end(), Lo, Cmp);
  auto Last = std::upper_bound(Markers.begin(), Markers.end(), Hi, Cmp);
  return std::vector<LibraryMarker>(First, Last);
}

std::vector<uint8_t> CheckpointLibrary::encode() const {
  std::vector<uint8_t> Out;
  putU32(Out, LibraryVersion);
  putU64(Out, PeriodInsts);
  putU64(Out, TotalInsts);
  Out.push_back(StreamHalted ? 1 : 0);
  putU32(Out, static_cast<uint32_t>(DeciderKind.size()));
  Out.insert(Out.end(), DeciderKind.begin(), DeciderKind.end());

  putU64(Out, StorePages.size());
  std::unordered_map<const Memory::Page *, uint64_t> PageIndex;
  PageIndex.reserve(StorePages.size());
  for (size_t I = 0; I != StorePages.size(); ++I) {
    PageIndex.emplace(StorePages[I].get(), I);
    Out.insert(Out.end(), StorePages[I]->begin(), StorePages[I]->end());
  }

  putU64(Out, Checkpoints.size());
  for (const LibraryCheckpoint &C : Checkpoints) {
    putU64(Out, C.InstsRetired);
    putU64(Out, C.Pc);
    Out.push_back(C.Halted ? 1 : 0);
    for (uint64_t R : C.Regs)
      putU64(Out, R);
    putU32(Out, static_cast<uint32_t>(C.DeciderWords.size()));
    for (uint64_t W : C.DeciderWords)
      putU64(Out, W);
    putU64(Out, C.Pages.size());
    for (const auto &[Base, P] : C.Pages) {
      putU64(Out, Base);
      auto It = PageIndex.find(P.get());
      assert(It != PageIndex.end() && "checkpoint page not in store");
      putU64(Out, It->second);
    }
  }

  putU64(Out, Markers.size());
  for (const LibraryMarker &M : Markers) {
    putU32(Out, static_cast<uint32_t>(M.Id));
    putU64(Out, M.GlobalInst);
  }
  return Out;
}

bool CheckpointLibrary::decode(const std::vector<uint8_t> &Bytes,
                               CheckpointLibrary &Lib, std::string &Error) {
  const uint64_t PageBytes = Memory::pageBytes();
  CheckpointLibrary L;
  ByteReader R(Bytes);
  uint32_t Ver = R.u32();
  if (R.failed())
    return fail(Error, "truncated library header");
  if (Ver != LibraryVersion)
    return fail(Error, "unsupported library version " + std::to_string(Ver));
  L.PeriodInsts = R.u64();
  L.TotalInsts = R.u64();
  L.StreamHalted = R.u8() != 0;
  if (R.failed() || L.PeriodInsts == 0)
    return fail(Error, "bad library header");

  uint32_t KindLen = R.u32();
  if (R.failed() || KindLen > MaxDeciderKindLen)
    return fail(Error, "bad library decider kind");
  L.DeciderKind.assign(KindLen, '\0');
  if (KindLen != 0 && !R.bytes(L.DeciderKind.data(), KindLen))
    return fail(Error, "truncated library decider kind");

  uint64_t NumStorePages = R.u64();
  if (R.failed() || NumStorePages > (Bytes.size() / PageBytes) + 1)
    return fail(Error, "bad library page store size");
  L.StorePages.reserve(NumStorePages);
  for (uint64_t I = 0; I != NumStorePages; ++I) {
    auto P = std::make_shared<Memory::Page>();
    if (!R.bytes(P->data(), PageBytes))
      return fail(Error, "truncated library store page");
    L.StorePages.push_back(std::move(P));
  }

  uint64_t NumCheckpoints = R.u64();
  if (R.failed() || NumCheckpoints > R.remaining())
    return fail(Error, "bad library checkpoint count");
  L.Checkpoints.reserve(NumCheckpoints);
  uint64_t PrevInsts = 0;
  for (uint64_t I = 0; I != NumCheckpoints; ++I) {
    LibraryCheckpoint C;
    C.InstsRetired = R.u64();
    C.Pc = R.u64();
    C.Halted = R.u8() != 0;
    for (unsigned J = 0; J != 32; ++J)
      C.Regs[J] = R.u64();
    uint32_t NumWords = R.u32();
    if (R.failed() || NumWords > MaxDeciderWords)
      return fail(Error, "bad library decider state");
    if (I != 0 && NumWords != L.Checkpoints.front().DeciderWords.size())
      return fail(Error, "library decider state changes size");
    for (uint32_t J = 0; J != NumWords; ++J)
      C.DeciderWords.push_back(R.u64());
    if (I != 0 && !R.failed() && C.InstsRetired <= PrevInsts)
      return fail(Error, "library checkpoints out of order");
    PrevInsts = C.InstsRetired;

    uint64_t NumPages = R.u64();
    if (R.failed() || NumPages > R.remaining() / 16 + 1)
      return fail(Error, "bad library checkpoint page count");
    C.Pages.reserve(NumPages);
    uint64_t PrevBase = 0;
    for (uint64_t J = 0; J != NumPages; ++J) {
      uint64_t Base = R.u64();
      uint64_t Index = R.u64();
      if (R.failed() || Base % PageBytes != 0 || Index >= L.StorePages.size())
        return fail(Error, "bad library checkpoint page reference");
      if (J != 0 && Base <= PrevBase)
        return fail(Error, "library checkpoint pages out of order");
      PrevBase = Base;
      C.Pages.emplace_back(Base, L.StorePages[Index]);
    }
    L.Checkpoints.push_back(std::move(C));
  }
  if (L.Checkpoints.empty())
    return fail(Error, "library has no checkpoints");

  uint64_t NumMarkers = R.u64();
  if (R.failed() || NumMarkers > R.remaining())
    return fail(Error, "bad library marker count");
  L.Markers.reserve(NumMarkers);
  for (uint64_t I = 0; I != NumMarkers; ++I) {
    LibraryMarker M;
    M.Id = static_cast<int32_t>(R.u32());
    M.GlobalInst = R.u64();
    L.Markers.push_back(M);
  }
  if (R.failed())
    return fail(Error, "truncated library payload");
  if (!R.atEnd())
    return fail(Error, "trailing bytes after library payload");

  // The shape build() always produces, which the resume path relies on:
  // markersIn binary-searches the markers, and a run ends on the final
  // checkpoint's halt state.
  const LibraryCheckpoint &Last = L.Checkpoints.back();
  if (L.Checkpoints.front().InstsRetired != 0)
    return fail(Error, "library checkpoint 0 is not at instruction 0");
  if (Last.InstsRetired != L.TotalInsts || Last.Halted != L.StreamHalted)
    return fail(Error, "library final checkpoint does not match the stream");
  for (size_t I = 0; I + 1 < L.Checkpoints.size(); ++I)
    if (L.Checkpoints[I].Halted)
      return fail(Error, "library checkpoint halted before the last");
  uint64_t PrevMarker = 0;
  for (const LibraryMarker &M : L.Markers) {
    if (M.GlobalInst <= PrevMarker || M.GlobalInst > L.TotalInsts)
      return fail(Error, "library markers out of order or out of range");
    PrevMarker = M.GlobalInst;
  }

  Lib = std::move(L);
  return true;
}

ContainerSection CheckpointLibrary::section() const {
  return ContainerSection::make(LibraryTag, encode());
}

bool bor::ckpt::saveLibraryFile(const Program &P,
                                const CheckpointLibrary &Lib,
                                const std::string &Path) {
  return saveProgram(P, Path, {Lib.section()});
}

bool bor::ckpt::loadLibraryFile(const std::string &Path, Program &P,
                                CheckpointLibrary &Lib, std::string &Error) {
  LoadResult R = loadProgramFile(Path);
  if (!R.Ok)
    return fail(Error, R.Error);
  const ContainerSection *S = R.findSection(LibraryTag);
  if (!S)
    return fail(Error, "'" + Path + "' has no CKPL section");
  if (!CheckpointLibrary::decode(S->Bytes, Lib, Error))
    return false;
  P = std::move(R.Prog);
  return true;
}
