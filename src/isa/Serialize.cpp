//===- isa/Serialize.cpp - Binary program images ---------------------------===//

#include "isa/Serialize.h"

#include "isa/Encoding.h"
#include "support/ByteCodec.h"

#include <cstdio>
#include <cstring>
#include <iterator>

using namespace bor;

namespace {

constexpr char Magic[4] = {'B', 'O', 'R', 'B'};
constexpr uint32_t VersionNoSections = 1;
constexpr uint32_t VersionWithSections = 2;

LoadResult fail(const std::string &Message) {
  LoadResult R;
  R.Error = Message;
  return R;
}

} // namespace

std::vector<uint8_t>
bor::serializeProgram(const Program &P,
                      const std::vector<ContainerSection> &Sections) {
  std::vector<uint8_t> Out(std::begin(Magic), std::end(Magic));
  putU32(Out, Sections.empty() ? VersionNoSections : VersionWithSections);
  putU32(Out, static_cast<uint32_t>(P.numInsts()));
  putU64(Out, P.dataBase());
  putU64(Out, P.data().size());
  putU32(Out, static_cast<uint32_t>(P.symbols().size()));

  for (const Inst &I : P.code())
    putU32(Out, encode(I));
  Out.insert(Out.end(), P.data().begin(), P.data().end());
  for (const auto &[Name, Addr] : P.symbols()) {
    putU32(Out, static_cast<uint32_t>(Name.size()));
    Out.insert(Out.end(), Name.begin(), Name.end());
    putU64(Out, Addr);
  }
  if (!Sections.empty()) {
    putU32(Out, static_cast<uint32_t>(Sections.size()));
    for (const ContainerSection &S : Sections) {
      Out.insert(Out.end(), S.Tag.begin(), S.Tag.end());
      putU64(Out, S.Bytes.size());
      Out.insert(Out.end(), S.Bytes.begin(), S.Bytes.end());
    }
  }
  return Out;
}

LoadResult bor::deserializeProgram(const std::vector<uint8_t> &Bytes) {
  ByteReader R(Bytes);
  char Got[4];
  if (!R.bytes(Got, 4) || std::memcmp(Got, Magic, 4) != 0)
    return fail("not a BORB image (bad magic)");
  uint32_t Ver = R.u32();
  if (Ver != VersionNoSections && Ver != VersionWithSections)
    return fail("unsupported BORB version " + std::to_string(Ver));

  uint32_t NumInsts = R.u32();
  uint64_t DataBase = R.u64();
  uint64_t DataSize = R.u64();
  uint32_t NumSymbols = R.u32();
  if (R.failed())
    return fail("truncated header");
  if (DataBase % 8 != 0)
    return fail("data base must be 8-byte aligned");

  // Every length is bounded by the bytes actually present before anything
  // is sized from it, so an inflated header fails cleanly instead of
  // allocating (or throwing bad_alloc on) what it claims.
  if (NumInsts > R.remaining() / 4)
    return fail("bad instruction count");
  std::vector<Inst> Code;
  Code.reserve(NumInsts);
  for (uint32_t I = 0; I != NumInsts; ++I) {
    uint32_t Word = R.u32();
    if (R.failed())
      return fail("truncated code segment");
    if ((Word >> 26) >= NumOpcodes)
      return fail("invalid opcode in instruction " + std::to_string(I));
    Code.push_back(decode(Word));
  }

  if (DataSize > R.remaining())
    return fail("bad data size");
  std::vector<uint8_t> Data(DataSize);
  if (DataSize != 0 && !R.bytes(Data.data(), DataSize))
    return fail("truncated data segment");

  Program P(std::move(Code), DataBase, std::move(Data));
  for (uint32_t I = 0; I != NumSymbols; ++I) {
    uint32_t Len = R.u32();
    if (R.failed() || Len > 4096)
      return fail("bad symbol table");
    std::string Name(Len, '\0');
    if (Len != 0 && !R.bytes(Name.data(), Len))
      return fail("truncated symbol name");
    uint64_t Addr = R.u64();
    if (R.failed())
      return fail("truncated symbol address");
    P.setSymbol(Name, Addr);
  }

  std::vector<ContainerSection> Sections;
  if (Ver >= VersionWithSections) {
    uint32_t NumSections = R.u32();
    if (R.failed())
      return fail("truncated section table");
    for (uint32_t I = 0; I != NumSections; ++I) {
      ContainerSection S;
      if (!R.bytes(S.Tag.data(), 4))
        return fail("truncated section tag");
      uint64_t Size = R.u64();
      if (R.failed() || Size > R.remaining())
        return fail("bad section size");
      S.Bytes.resize(Size);
      if (Size != 0 && !R.bytes(S.Bytes.data(), Size))
        return fail("truncated section payload");
      Sections.push_back(std::move(S));
    }
  }
  if (!R.atEnd())
    return fail("trailing bytes after image");

  LoadResult Result;
  Result.Ok = true;
  Result.Prog = std::move(P);
  Result.Sections = std::move(Sections);
  return Result;
}

bool bor::saveProgram(const Program &P, const std::string &Path,
                      const std::vector<ContainerSection> &Sections) {
  std::vector<uint8_t> Bytes = serializeProgram(P, Sections);
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  size_t Written = std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  bool Ok = std::fclose(F) == 0 && Written == Bytes.size();
  return Ok;
}

LoadResult bor::loadProgramFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return fail("cannot open '" + Path + "'");
  std::vector<uint8_t> Bytes;
  uint8_t Buf[65536];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  std::fclose(F);
  return deserializeProgram(Bytes);
}
