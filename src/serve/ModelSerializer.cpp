//===- serve/ModelSerializer.cpp - Versioned model save/load ---------------===//

#include "serve/ModelSerializer.h"

#include "predictors/DecisionTree.h"
#include "predictors/NearestNeighbor.h"
#include "support/Wire.h"

#include <cstring>
#include <fstream>
#include <vector>

using namespace nv;

namespace {

void setError(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
}

/// Every learnable parameter of the pair, in a fixed order.
std::vector<Param *> allParams(Code2Vec &Embedder, Policy &Pol) {
  std::vector<Param *> Params = Embedder.params();
  for (Param *P : Pol.params())
    Params.push_back(P);
  return Params;
}

} // namespace

uint64_t ModelSerializer::checksum(const void *Data, size_t Size) {
  const unsigned char *Bytes = static_cast<const unsigned char *>(Data);
  uint64_t Hash = 0xCBF29CE484222325ull;
  for (size_t I = 0; I < Size; ++I) {
    Hash ^= Bytes[I];
    Hash *= 0x100000001B3ull;
  }
  return Hash;
}

SaveStatus ModelSerializer::trySave(const std::string &Path, Code2Vec &Embedder,
                                    Policy &Pol, const ModelMeta &Meta,
                                    const SupervisedBundle &Supervised,
                                    std::string *Error) {
  std::vector<Param *> Params = allParams(Embedder, Pol);

  uint32_t Flags = 0;
  if (Meta.InnerContextOnly)
    Flags |= 1u;
  // Bit 1: the embedding tables are bucketed by the bias-free vocabulary
  // fold (hashToVocab). Files without it were trained under the legacy
  // `fnv1a % vocab` bucketing, whose row assignments the current
  // extractor no longer reproduces — loading one would silently read
  // rows trained for unrelated tokens, so the loader rejects them.
  Flags |= 2u;

  std::vector<char> Buffer;
  wire::appendValue(Buffer, Magic);
  wire::appendValue(Buffer, FormatVersion);
  wire::appendValue(Buffer, Flags);
  wire::appendValue(Buffer, static_cast<uint32_t>(Params.size()));
  for (Param *P : Params) {
    wire::appendValue(Buffer, static_cast<uint32_t>(P->Value.rows()));
    wire::appendValue(Buffer, static_cast<uint32_t>(P->Value.cols()));
    wire::appendBytes(Buffer, P->Value.raw().data(),
                      P->Value.raw().size() * sizeof(double));
  }

  // v3 sections: one per fitted supervised backend. Empty backends are
  // skipped so a weights-only save stays minimal and a later load knows
  // the file carries no distillation.
  std::vector<std::pair<uint32_t, std::vector<char>>> Sections;
  if (Supervised.NNS && Supervised.NNS->size() > 0) {
    std::vector<char> Payload;
    Supervised.NNS->serialize(Payload);
    Sections.emplace_back(NNSSectionTag, std::move(Payload));
  }
  if (Supervised.Tree && Supervised.Tree->fitted()) {
    std::vector<char> Payload;
    Supervised.Tree->serialize(Payload);
    Sections.emplace_back(TreeSectionTag, std::move(Payload));
  }
  wire::appendValue(Buffer, static_cast<uint32_t>(Sections.size()));
  for (const auto &[Tag, Payload] : Sections) {
    wire::appendValue(Buffer, Tag);
    wire::appendValue(Buffer, static_cast<uint64_t>(Payload.size()));
    wire::appendBytes(Buffer, Payload.data(), Payload.size());
  }

  wire::appendValue(Buffer, checksum(Buffer.data(), Buffer.size()));

  std::string IoError;
  SaveStatus St = atomicWriteFile(Path, Buffer.data(), Buffer.size(), &IoError);
  if (St != SaveStatus::Ok)
    setError(Error, "save '" + Path + "': " + IoError);
  return St;
}

const char *nv::loadStatusName(LoadStatus Status) {
  switch (Status) {
  case LoadStatus::Ok:
    return "ok";
  case LoadStatus::OpenFailed:
    return "open_failed";
  case LoadStatus::Truncated:
    return "truncated";
  case LoadStatus::BadChecksum:
    return "bad_checksum";
  case LoadStatus::BadMagic:
    return "bad_magic";
  case LoadStatus::BadVersion:
    return "bad_version";
  case LoadStatus::LegacyHashing:
    return "legacy_hashing";
  case LoadStatus::ArchMismatch:
    return "arch_mismatch";
  case LoadStatus::Malformed:
    return "malformed";
  }
  return "unknown";
}

bool ModelSerializer::load(const std::string &Path, Code2Vec &Embedder,
                           Policy &Pol, ModelMeta *Meta,
                           SupervisedBundle *Supervised, std::string *Error) {
  return tryLoad(Path, Embedder, Pol, Meta, Supervised, Error) ==
         LoadStatus::Ok;
}

LoadStatus ModelSerializer::tryLoad(const std::string &Path,
                                    Code2Vec &Embedder, Policy &Pol,
                                    ModelMeta *Meta,
                                    SupervisedBundle *Supervised,
                                    std::string *Error) {
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  if (!In) {
    setError(Error, "cannot open '" + Path + "'");
    return LoadStatus::OpenFailed;
  }
  const std::streamsize Size = In.tellg();
  In.seekg(0);
  std::vector<char> Buffer;
  // A file of lies (or a disk error mid-read) must come back as a status,
  // never an exception: the reload endpoint feeds this path files pushed
  // over the network.
  try {
    Buffer.resize(static_cast<size_t>(Size));
  } catch (const std::bad_alloc &) {
    setError(Error, "file too large to buffer");
    return LoadStatus::Malformed;
  }
  if (!In.read(Buffer.data(), Size)) {
    setError(Error, "short read from '" + Path + "'");
    return LoadStatus::OpenFailed;
  }

  // Validate the envelope before looking inside (v1 header is the
  // smallest: magic, version, count).
  if (Buffer.size() < 3 * sizeof(uint32_t) + sizeof(uint64_t)) {
    setError(Error, "file too small to be a model");
    return LoadStatus::Truncated;
  }
  const size_t PayloadSize = Buffer.size() - sizeof(uint64_t);
  uint64_t StoredSum = 0;
  std::memcpy(&StoredSum, Buffer.data() + PayloadSize, sizeof(uint64_t));
  if (StoredSum != checksum(Buffer.data(), PayloadSize)) {
    setError(Error, "checksum mismatch: file is corrupt or truncated");
    return LoadStatus::BadChecksum;
  }

  size_t Offset = 0;
  uint32_t FileMagic = 0, Version = 0, Flags = 0, Count = 0;
  wire::readValue(Buffer, Offset, FileMagic);
  wire::readValue(Buffer, Offset, Version);
  if (FileMagic != Magic) {
    setError(Error, "bad magic: not a NeuroVectorizer model file");
    return LoadStatus::BadMagic;
  }
  if (Version < 1 || Version > FormatVersion) {
    setError(Error, "unsupported format version " + std::to_string(Version));
    return LoadStatus::BadVersion;
  }
  // v1 had no flags word; those models could only have been trained with
  // the default outer-context extraction, so Flags = 0 is exact (and
  // their vocabulary bucketing is undetectable — see the header note).
  if (Version >= 2) {
    wire::readValue(Buffer, Offset, Flags);
    if ((Flags & 2u) == 0) {
      setError(Error,
               "model was saved with the legacy vocabulary hashing; its "
               "embedding rows do not match the current extractor — "
               "retrain and re-save with this build");
      return LoadStatus::LegacyHashing;
    }
    // Bit 2: the policy was trained on the code embedding plus a
    // legality-feature block, an input this build no longer produces.
    // The shape checks below would reject it too; this names the cause.
    if ((Flags & 4u) != 0) {
      setError(Error, "model was trained with legality features; retrain");
      return LoadStatus::ArchMismatch;
    }
  }
  wire::readValue(Buffer, Offset, Count);

  std::vector<Param *> Params = allParams(Embedder, Pol);
  if (Count != Params.size()) {
    setError(Error, "model has " + std::to_string(Count) +
                        " parameters, expected " +
                        std::to_string(Params.size()) +
                        " (architecture mismatch)");
    return LoadStatus::ArchMismatch;
  }

  // Two passes: validate every shape first so a mismatch midway cannot
  // leave the destination half-overwritten.
  std::vector<size_t> Offsets(Params.size());
  for (size_t I = 0; I < Params.size(); ++I) {
    uint32_t Rows = 0, Cols = 0;
    if (!wire::readValue(Buffer, Offset, Rows) ||
        !wire::readValue(Buffer, Offset, Cols)) {
      setError(Error, "unexpected end of file in parameter header");
      return LoadStatus::Malformed;
    }
    const Matrix &Dest = Params[I]->Value;
    if (Rows != static_cast<uint32_t>(Dest.rows()) ||
        Cols != static_cast<uint32_t>(Dest.cols())) {
      setError(Error, "parameter " + std::to_string(I) + " is " +
                          std::to_string(Rows) + "x" + std::to_string(Cols) +
                          ", expected " + std::to_string(Dest.rows()) + "x" +
                          std::to_string(Dest.cols()) +
                          " (architecture mismatch)");
      return LoadStatus::ArchMismatch;
    }
    const size_t Bytes = static_cast<size_t>(Rows) * Cols * sizeof(double);
    if (Offset + Bytes > PayloadSize) {
      setError(Error, "unexpected end of file in parameter data");
      return LoadStatus::Malformed;
    }
    Offsets[I] = Offset;
    Offset += Bytes;
  }

  // v3 backend sections. Parsed into temporaries before any destination
  // is touched, preserving the all-or-nothing contract for the weights
  // AND the supervised predictors.
  NearestNeighborPredictor LoadedNNS;
  DecisionTree LoadedTree;
  bool HaveNNS = false, HaveTree = false;
  if (Version >= 3) {
    uint32_t SectionCount = 0;
    if (!wire::readValue(Buffer, Offset, SectionCount)) {
      setError(Error, "unexpected end of file in section count");
      return LoadStatus::Malformed;
    }
    for (uint32_t S = 0; S < SectionCount; ++S) {
      uint32_t Tag = 0;
      uint64_t Length = 0;
      // The header reads bound against the whole buffer, so Offset may
      // land past PayloadSize (inside the checksum) before this check;
      // and the Length test subtracts rather than adds because a corrupt
      // 64-bit Length could wrap Offset + Length past the bounds check.
      if (!wire::readValue(Buffer, Offset, Tag) ||
          !wire::readValue(Buffer, Offset, Length) ||
          Offset > PayloadSize || Length > PayloadSize - Offset) {
        setError(Error, "unexpected end of file in section header");
        return LoadStatus::Malformed;
      }
      const char *Payload = Buffer.data() + Offset;
      std::string SectionError;
      if (Tag == NNSSectionTag) {
        if (!LoadedNNS.deserialize(Payload, Length, &SectionError)) {
          setError(Error, SectionError);
          return LoadStatus::Malformed;
        }
        if (LoadedNNS.dimension() !=
            static_cast<size_t>(Embedder.codeDim())) {
          setError(Error, "NNS section: embedding dimension mismatch");
          return LoadStatus::ArchMismatch;
        }
        HaveNNS = true;
      } else if (Tag == TreeSectionTag) {
        if (!LoadedTree.deserialize(Payload, Length, &SectionError)) {
          setError(Error, SectionError);
          return LoadStatus::Malformed;
        }
        if (LoadedTree.numFeatures() != Embedder.codeDim()) {
          setError(Error, "tree section: embedding dimension mismatch");
          return LoadStatus::ArchMismatch;
        }
        HaveTree = true;
      } else {
        setError(Error, "unknown section tag in model file");
        return LoadStatus::Malformed;
      }
      Offset += Length;
    }
  }

  if (Offset != PayloadSize) {
    setError(Error, "trailing bytes after last parameter");
    return LoadStatus::Malformed;
  }

  for (size_t I = 0; I < Params.size(); ++I) {
    std::vector<double> &Dest = Params[I]->Value.raw();
    std::memcpy(Dest.data(), Buffer.data() + Offsets[I],
                Dest.size() * sizeof(double));
  }
  if (Meta)
    Meta->InnerContextOnly = (Flags & 1u) != 0;
  if (Supervised) {
    // A file without sections clears the destinations: the weights just
    // changed, so any previously fitted index is stale either way.
    if (Supervised->NNS) {
      if (HaveNNS)
        *Supervised->NNS = std::move(LoadedNNS);
      else
        Supervised->NNS->clear();
    }
    if (Supervised->Tree) {
      if (HaveTree)
        *Supervised->Tree = std::move(LoadedTree);
      else
        Supervised->Tree->clear();
    }
    Supervised->Loaded = HaveNNS || HaveTree;
  }
  return LoadStatus::Ok;
}
