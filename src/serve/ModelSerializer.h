//===- serve/ModelSerializer.h - Versioned model save/load ------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary persistence for a trained model: the Code2Vec embedding
/// generator (token/path tables, attention) and the PPO Policy (trunk,
/// heads), plus — since format v3 — the supervised backends distilled
/// from them. The paper trains once and deploys the frozen policy for
/// inference on unseen programs; this file is that deployment artifact,
/// and with the backend sections one file restores the *whole* backend
/// set (RL + NNS + decision tree) into a serving process.
///
/// Format v3 (little-endian, doubles written raw so a round trip is
/// bitwise exact):
///
///   u32 magic 'NVMF'   u32 version
///   u32 flags          (bit 0: trained on inner-context embeddings;
///                       bit 1: vocabulary bucketed by the bias-free
///                       hashToVocab fold — REQUIRED on load for v2+,
///                       so files trained under the legacy
///                       `fnv1a % vocab` bucketing fail loudly instead
///                       of silently reading re-bucketed embedding rows;
///                       bit 2: the policy trunk read a legality-feature
///                       block after the code embedding — no longer
///                       written, and rejected on load)
///   u32 paramCount
///   per param:  u32 rows, u32 cols, rows*cols f64 values
///   u32 sectionCount                                        (v3+)
///   per section: u32 tag, u64 byteLength, payload           (v3+)
///   u64 FNV-1a checksum over everything before it
///
/// Sections carry the distilled supervised predictors: 'SNNS' is a
/// NearestNeighborPredictor payload, 'STRE' a DecisionTree payload (see
/// their serialize() methods). A weights-only model writes sectionCount
/// 0. v1 files (no flags word, no sections) and v2 files (flags word, no
/// sections) still load; their backend set is simply unfitted. Caveat:
/// a v1 file has no flags word, so the vocabulary-hash check above
/// cannot apply — a v1 file written by a pre-fold build loads but its
/// embeddings are re-bucketed (retrain rather than carry v1 artifacts
/// across builds).
///
/// Loading validates magic, version, per-parameter shapes against the
/// *destination* model (so a file trained with one architecture cannot be
/// loaded into another), byte counts, section framing, and the checksum —
/// truncated or bit-flipped files are rejected without touching the
/// destination.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SERVE_MODELSERIALIZER_H
#define NV_SERVE_MODELSERIALIZER_H

#include "embedding/Code2Vec.h"
#include "rl/Policy.h"
#include "support/AtomicFile.h"

#include <cstdint>
#include <string>

namespace nv {

class NearestNeighborPredictor;
class DecisionTree;

/// Model-level settings persisted alongside the weights.
struct ModelMeta {
  /// The context-extraction selection the model was trained with
  /// (VectorizationEnv::innerContextOnly).
  bool InnerContextOnly = false;
};

/// The distilled supervised predictors riding along with the weights.
/// save(): non-null members are written as v3 sections (skipped when the
/// predictor is empty/unfitted). load(): non-null members receive the
/// file's sections; Loaded reports whether any were present.
struct SupervisedBundle {
  NearestNeighborPredictor *NNS = nullptr;
  DecisionTree *Tree = nullptr;
  bool Loaded = false; ///< load() only: sections were present and restored.
};

/// Why a load failed, as a machine-readable code. The string form of each
/// failure stays in the optional Error out-parameter; the code exists for
/// callers that must *act* on the distinction — the network reload
/// endpoint maps it onto a wire status so a corrupt file pushed to a
/// running daemon produces a clean protocol error (and the old model keeps
/// serving) instead of a stringly-typed guess.
enum class LoadStatus {
  Ok,
  OpenFailed,    ///< File missing or unreadable.
  Truncated,     ///< Too small to hold even the v1 envelope.
  BadChecksum,   ///< FNV-1a mismatch: corrupt or truncated payload.
  BadMagic,      ///< Not a NeuroVectorizer model file.
  BadVersion,    ///< Format version outside [1, FormatVersion].
  LegacyHashing, ///< Pre-fold vocabulary bucketing (retrain required).
  ArchMismatch,  ///< Parameter count/shape differs from the destination.
  Malformed,     ///< Framing damage the checksum cannot see (bad section
                 ///< tag/length, trailing bytes, short parameter data).
};

/// Stable lowercase name for a LoadStatus ("ok", "bad_checksum", ...).
const char *loadStatusName(LoadStatus Status);

/// Save/load for the (embedder, policy, supervised backends) set.
class ModelSerializer {
public:
  static constexpr uint32_t Magic = 0x4E564D46; ///< 'NVMF'.
  static constexpr uint32_t FormatVersion = 3;

  /// Section tags (v3).
  static constexpr uint32_t NNSSectionTag = 0x534E4E53;  ///< 'SNNS'.
  static constexpr uint32_t TreeSectionTag = 0x45525453; ///< 'STRE'.

  /// Writes \p Embedder and \p Pol (with \p Meta in the header and the
  /// non-null fitted members of \p Supervised as sections) to \p Path.
  /// Crash-safe since the fault-hardening pass: the bytes go to a temp
  /// file that is fsynced and renamed over \p Path (support/AtomicFile.h),
  /// so a crash mid-save never destroys the previous model. Returns a
  /// machine-readable SaveStatus mirroring tryLoad's LoadStatus — the
  /// snapshot CLI and the reload RPC surface saveStatusName() of it.
  static SaveStatus trySave(const std::string &Path, Code2Vec &Embedder,
                            Policy &Pol, const ModelMeta &Meta,
                            const SupervisedBundle &Supervised,
                            std::string *Error = nullptr);

  /// Bool wrapper over trySave (historic signature).
  static bool save(const std::string &Path, Code2Vec &Embedder, Policy &Pol,
                   const ModelMeta &Meta, const SupervisedBundle &Supervised,
                   std::string *Error = nullptr) {
    return trySave(Path, Embedder, Pol, Meta, Supervised, Error) ==
           SaveStatus::Ok;
  }

  /// Weights-only overload (no backend sections).
  static bool save(const std::string &Path, Code2Vec &Embedder, Policy &Pol,
                   const ModelMeta &Meta, std::string *Error = nullptr) {
    return save(Path, Embedder, Pol, Meta, SupervisedBundle(), Error);
  }

  /// Back-compat overload: default metadata (outer-context model).
  static bool save(const std::string &Path, Code2Vec &Embedder, Policy &Pol,
                   std::string *Error = nullptr) {
    return save(Path, Embedder, Pol, ModelMeta(), SupervisedBundle(), Error);
  }

  /// Reads \p Path into \p Embedder and \p Pol, the header settings into
  /// \p Meta (may be null), and any backend sections into the non-null
  /// members of \p Supervised (may be null; sections are then ignored).
  /// All-or-nothing: on any validation failure every destination is left
  /// untouched and \p Error describes the problem.
  static bool load(const std::string &Path, Code2Vec &Embedder, Policy &Pol,
                   ModelMeta *Meta, SupervisedBundle *Supervised,
                   std::string *Error = nullptr);

  /// load() with a machine-readable failure code instead of a bool; never
  /// throws. Same all-or-nothing contract: anything but LoadStatus::Ok
  /// leaves every destination untouched, so a daemon can keep serving the
  /// model it already has.
  static LoadStatus tryLoad(const std::string &Path, Code2Vec &Embedder,
                            Policy &Pol, ModelMeta *Meta,
                            SupervisedBundle *Supervised,
                            std::string *Error = nullptr);

  /// Weights/meta-only overload.
  static bool load(const std::string &Path, Code2Vec &Embedder, Policy &Pol,
                   ModelMeta *Meta, std::string *Error = nullptr) {
    return load(Path, Embedder, Pol, Meta, nullptr, Error);
  }

  /// Back-compat overload discarding the metadata.
  static bool load(const std::string &Path, Code2Vec &Embedder, Policy &Pol,
                   std::string *Error = nullptr) {
    return load(Path, Embedder, Pol, nullptr, nullptr, Error);
  }

  /// FNV-1a 64-bit over \p Size bytes (exposed for tests).
  static uint64_t checksum(const void *Data, size_t Size);
};

} // namespace nv

#endif // NV_SERVE_MODELSERIALIZER_H
