//===- tests/test_serialize.cpp - BORB container tests --------------------===//

#include "isa/Serialize.h"

#include "Mutations.h"
#include "ckpt/CheckpointLibrary.h"
#include "sim/Interpreter.h"
#include "workloads/Microbench.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

using namespace bor;

namespace {

void expectEqualPrograms(const Program &A, const Program &B) {
  ASSERT_EQ(A.numInsts(), B.numInsts());
  for (size_t I = 0; I != A.numInsts(); ++I)
    EXPECT_EQ(A.at(I), B.at(I)) << "instruction " << I;
  EXPECT_EQ(A.dataBase(), B.dataBase());
  EXPECT_EQ(A.data(), B.data());
  EXPECT_EQ(A.symbols(), B.symbols());
}

} // namespace

TEST(Serialize, RoundTripsEmptyProgram) {
  Program Empty;
  LoadResult R = deserializeProgram(serializeProgram(Empty));
  ASSERT_TRUE(R.Ok) << R.Error;
  expectEqualPrograms(Empty, R.Prog);
}

TEST(Serialize, RoundTripsMicrobenchmark) {
  // A real program with code, initialized data and symbols.
  MicrobenchConfig C;
  C.Text.NumChars = 5000;
  C.Instr.Framework = SamplingFramework::BrrBased;
  C.Instr.Interval = 64;
  MicrobenchProgram MB = buildMicrobench(C);

  LoadResult R = deserializeProgram(serializeProgram(MB.Prog));
  ASSERT_TRUE(R.Ok) << R.Error;
  expectEqualPrograms(MB.Prog, R.Prog);
}

TEST(Serialize, DeserializedProgramExecutesIdentically) {
  MicrobenchConfig C;
  C.Text.NumChars = 5000;
  MicrobenchProgram MB = buildMicrobench(C);
  LoadResult R = deserializeProgram(serializeProgram(MB.Prog));
  ASSERT_TRUE(R.Ok);

  auto Run = [](const Program &P) {
    Machine M;
    NeverTakenDecider D;
    const DecodedProgram DP(P);
    Interpreter I(DP, M, D);
    I.run(1ULL << 24);
    return M.memory().readU64(P.symbol("results"));
  };
  EXPECT_EQ(Run(MB.Prog), Run(R.Prog));
}

TEST(Serialize, RejectsBadMagic) {
  std::vector<uint8_t> Bytes = serializeProgram(Program());
  Bytes[0] = 'X';
  LoadResult R = deserializeProgram(Bytes);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("magic"), std::string::npos);
}

TEST(Serialize, RejectsWrongVersion) {
  std::vector<uint8_t> Bytes = serializeProgram(Program());
  Bytes[4] = 99;
  LoadResult R = deserializeProgram(Bytes);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("version"), std::string::npos);
}

TEST(Serialize, RejectsTruncation) {
  ProgramBuilder B;
  B.emit(Inst::add(1, 2, 3));
  B.emit(Inst::halt());
  std::vector<uint8_t> Bytes = serializeProgram(B.finish());
  for (size_t Cut : {size_t(2), Bytes.size() / 2, Bytes.size() - 1}) {
    std::vector<uint8_t> Truncated(Bytes.begin(), Bytes.begin() + Cut);
    EXPECT_FALSE(deserializeProgram(Truncated).Ok) << "cut at " << Cut;
  }
}

TEST(Serialize, SurvivesTruncationAndBitFlips) {
  // A real version-2 image kept small: a program whose checkpoint library
  // holds two distinct pages, its data page before and after the store.
  ProgramBuilder B;
  uint64_t Addr = B.allocData(8, 8);
  B.initDataU64(Addr, 0x1234);
  B.nameData("x", Addr);
  B.emitLoadConst(1, Addr);
  B.emit(Inst::marker(1));
  B.emit(Inst::li(2, 7));
  B.emit(Inst::st(2, 1, 0));
  B.emit(Inst::halt());
  Program P = B.finish();
  DecodedProgram DP(P);
  ckpt::CheckpointLibrary::BuildOptions Options;
  Options.EveryInsts = 2;
  ckpt::CheckpointLibrary Lib = ckpt::CheckpointLibrary::build(
      DP, BrrUnitConfig(), Options, /*Telemetry=*/nullptr);
  ASSERT_EQ(Lib.numStoredPages(), 2u);
  ASSERT_GE(Lib.numCheckpoints(), 3u);
  const std::vector<uint8_t> Image = serializeProgram(P, {Lib.section()});
  ASSERT_EQ(Image[4], 2);

  // Every prefix and single-bit flip either loads, its CKPL section then
  // decoding or failing with an error, or fails with an error.
  size_t Loaded = 0, Rejected = 0, LibsDecoded = 0;
  testgen::forEachMutation(Image, [&](const std::vector<uint8_t> &Bytes) {
    LoadResult R = deserializeProgram(Bytes);
    if (!R.Ok) {
      EXPECT_FALSE(R.Error.empty());
      ++Rejected;
      return;
    }
    ++Loaded;
    if (const ContainerSection *S = R.findSection("CKPL")) {
      ckpt::CheckpointLibrary Back;
      std::string Err;
      if (ckpt::CheckpointLibrary::decode(S->Bytes, Back, Err))
        ++LibsDecoded;
      else
        EXPECT_FALSE(Err.empty());
    }
  });
  EXPECT_GT(LibsDecoded, 0u); // flips inside page data still decode
  EXPECT_GT(Loaded, LibsDecoded);
  EXPECT_GE(Rejected, Image.size()); // no proper prefix is an image
}

TEST(Serialize, RejectsTrailingBytes) {
  std::vector<uint8_t> Bytes = serializeProgram(Program());
  Bytes.push_back(0);
  LoadResult R = deserializeProgram(Bytes);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("trailing"), std::string::npos);
}

TEST(Serialize, RejectsInvalidOpcodeBits) {
  ProgramBuilder B;
  B.emit(Inst::halt());
  std::vector<uint8_t> Bytes = serializeProgram(B.finish());
  // The single code word starts at offset 4+4+4+8+8+4 = 32; set opcode
  // bits to an out-of-range value.
  Bytes[32 + 3] = 0xff;
  LoadResult R = deserializeProgram(Bytes);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("opcode"), std::string::npos);
}

TEST(Serialize, FileSaveAndLoad) {
  ProgramBuilder B;
  uint64_t Addr = B.allocData(8, 8);
  B.initDataU64(Addr, 777);
  B.nameData("x", Addr);
  B.emit(Inst::halt());
  Program P = B.finish();

  std::string Path = testing::TempDir() + "/bor_serialize_test.borb";
  ASSERT_TRUE(saveProgram(P, Path));
  LoadResult R = loadProgramFile(Path);
  ASSERT_TRUE(R.Ok) << R.Error;
  expectEqualPrograms(P, R.Prog);
  std::remove(Path.c_str());
}

TEST(Serialize, LoadMissingFileFails) {
  LoadResult R = loadProgramFile("/nonexistent/path/x.borb");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("cannot open"), std::string::npos);
}

TEST(Serialize, SectionsRoundTrip) {
  ProgramBuilder B;
  B.emit(Inst::halt());
  Program P = B.finish();

  std::vector<ContainerSection> Sections;
  Sections.push_back(ContainerSection::make("CKPT", {1, 2, 3, 4, 5}));
  Sections.push_back(ContainerSection::make("NOTE", {}));

  LoadResult R = deserializeProgram(serializeProgram(P, Sections));
  ASSERT_TRUE(R.Ok) << R.Error;
  expectEqualPrograms(P, R.Prog);
  ASSERT_EQ(R.Sections.size(), 2u);
  const ContainerSection *Ckpt = R.findSection("CKPT");
  ASSERT_NE(Ckpt, nullptr);
  EXPECT_EQ(Ckpt->Bytes, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  const ContainerSection *Note = R.findSection("NOTE");
  ASSERT_NE(Note, nullptr);
  EXPECT_TRUE(Note->Bytes.empty());
  EXPECT_EQ(R.findSection("ABSD"), nullptr);
}

TEST(Serialize, NoSectionsStaysVersionOne) {
  // Backwards compatibility: a program without sections must serialize to
  // the exact bytes previous revisions wrote (version 1, ending at the
  // symbol table).
  MicrobenchConfig C;
  C.Text.NumChars = 200;
  MicrobenchProgram MB = buildMicrobench(C);

  std::vector<uint8_t> Bytes = serializeProgram(MB.Prog);
  EXPECT_EQ(Bytes[4], 1); // u32 version, little-endian
  std::vector<uint8_t> WithEmpty = serializeProgram(MB.Prog, {});
  EXPECT_EQ(Bytes, WithEmpty);

  std::vector<ContainerSection> Sections;
  Sections.push_back(ContainerSection::make("CKPT", {9}));
  std::vector<uint8_t> V2 = serializeProgram(MB.Prog, Sections);
  EXPECT_EQ(V2[4], 2);
  // The v2 image is the v1 image plus the section block.
  ASSERT_GT(V2.size(), Bytes.size());
  EXPECT_TRUE(std::equal(Bytes.begin() + 8, Bytes.end(), V2.begin() + 8));
}

TEST(Serialize, RejectsTruncatedSections) {
  ProgramBuilder B;
  B.emit(Inst::halt());
  std::vector<ContainerSection> Sections;
  Sections.push_back(ContainerSection::make("CKPT", {1, 2, 3, 4}));
  std::vector<uint8_t> Bytes = serializeProgram(B.finish(), Sections);

  // Cut inside the section block: count, header, payload.
  for (size_t Keep : {Bytes.size() - 1, Bytes.size() - 4, Bytes.size() - 9}) {
    std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + Keep);
    EXPECT_FALSE(deserializeProgram(Cut).Ok) << "kept " << Keep;
  }
  // Corrupt the declared payload size to overrun the buffer.
  std::vector<uint8_t> BadSize = Bytes;
  BadSize[BadSize.size() - 4 - 8] = 0xff; // low byte of the u64 size
  EXPECT_FALSE(deserializeProgram(BadSize).Ok);
}

TEST(Serialize, RejectsInflatedLengthsBeforeAllocating) {
  // Each image is a few dozen bytes whose header claims far more. The
  // decoder must bound every length by the bytes actually present rather
  // than allocate what the header says (or throw bad_alloc trying).
  auto putU64At = [](std::vector<uint8_t> &Bytes, size_t At, uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Bytes[At + I] = static_cast<uint8_t>(V >> (8 * I));
  };
  auto expectRejected = [](const std::vector<uint8_t> &Bytes,
                           const std::string &What) {
    LoadResult R = deserializeProgram(Bytes);
    EXPECT_FALSE(R.Ok) << What;
    EXPECT_NE(R.Error.find(What), std::string::npos) << R.Error;
  };

  // Header: magic, u32 version, u32 numInsts at offset 8, u64 dataBase,
  // u64 dataSize at offset 20, u32 numSymbols.
  std::vector<uint8_t> Insts = serializeProgram(Program());
  std::fill(Insts.begin() + 8, Insts.begin() + 12, 0xff);
  expectRejected(Insts, "instruction count");

  std::vector<uint8_t> Data = serializeProgram(Program());
  putU64At(Data, 20, 1ULL << 62);
  expectRejected(Data, "data size");

  // The section's u64 size sits just before its 4-byte payload.
  ProgramBuilder B;
  B.emit(Inst::halt());
  std::vector<uint8_t> Section = serializeProgram(
      B.finish(), {ContainerSection::make("CKPT", {1, 2, 3, 4})});
  putU64At(Section, Section.size() - 4 - 8, 1ULL << 20);
  expectRejected(Section, "section size");
}
