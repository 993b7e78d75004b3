//===- nn/Matrix.h - Dense matrix for the NN library ------------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small dense row-major matrix of doubles. This is the tensor type of
/// the from-scratch neural network library that replaces TensorFlow/RLlib
/// in this reproduction (see DESIGN.md). Deliberately minimal: the models
/// here (code2vec attention encoder + 64x64 FCNN policies) need nothing
/// fancier, and doubles keep gradient checks tight.
///
//===----------------------------------------------------------------------===//

#ifndef NV_NN_MATRIX_H
#define NV_NN_MATRIX_H

#include "support/RNG.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

namespace nv {

/// Row-major dense matrix.
class Matrix {
public:
  Matrix() = default;
  Matrix(int Rows, int Cols, double Fill = 0.0)
      : NumRows(Rows), NumCols(Cols),
        Data(static_cast<size_t>(Rows) * Cols, Fill) {
    assert(Rows >= 0 && Cols >= 0);
  }

  int rows() const { return NumRows; }
  int cols() const { return NumCols; }
  size_t size() const { return Data.size(); }
  bool empty() const { return Data.empty(); }

  double &at(int R, int C) {
    assert(R >= 0 && R < NumRows && C >= 0 && C < NumCols &&
           "matrix index out of range");
    return Data[static_cast<size_t>(R) * NumCols + C];
  }
  double at(int R, int C) const {
    assert(R >= 0 && R < NumRows && C >= 0 && C < NumCols &&
           "matrix index out of range");
    return Data[static_cast<size_t>(R) * NumCols + C];
  }

  double *rowPtr(int R) { return &Data[static_cast<size_t>(R) * NumCols]; }
  const double *rowPtr(int R) const {
    return &Data[static_cast<size_t>(R) * NumCols];
  }

  std::vector<double> &raw() { return Data; }
  const std::vector<double> &raw() const { return Data; }

  /// Reshapes to Rows x Cols reusing the existing allocation when it is
  /// large enough (the backbone of the allocation-free forward path: a
  /// buffer resized to the same shape every batch never reallocates).
  /// Contents are unspecified after a shape change.
  void resize(int Rows, int Cols) {
    assert(Rows >= 0 && Cols >= 0);
    NumRows = Rows;
    NumCols = Cols;
    Data.resize(static_cast<size_t>(Rows) * Cols);
  }

  /// Appends one row of \p Cols values, preserving every existing row
  /// (unlike resize, whose contents are unspecified). \p Cols must match
  /// cols() unless the matrix is empty. Amortized O(Cols): capacity grows
  /// geometrically, so incremental index builds (predictors/
  /// NearestNeighbor) stay linear overall.
  void appendRow(const double *Row, int Cols) {
    assert(Cols >= 0 && (NumRows == 0 || Cols == NumCols) &&
           "appendRow column mismatch");
    const size_t Needed = Data.size() + static_cast<size_t>(Cols);
    if (Data.capacity() < Needed)
      Data.reserve(std::max(Needed, Data.capacity() * 2));
    Data.insert(Data.end(), Row, Row + Cols);
    NumCols = Cols;
    ++NumRows;
  }

  /// Sets every element to \p Value.
  void fill(double Value);
  /// Sets every element to 0.
  void zero() { fill(0.0); }

  /// Element-wise in-place operations.
  Matrix &operator+=(const Matrix &Other);
  Matrix &operator-=(const Matrix &Other);
  Matrix &operator*=(double Scale);

  /// Fills with He/Xavier-style uniform random values in
  /// [-Scale, Scale] where Scale = sqrt(6 / (rows + cols)).
  void initXavier(RNG &Rng);

  /// Fills with N(0, Std^2) values (embedding-table initialization, where
  /// rows are looked up rather than multiplied: Xavier would shrink with
  /// the vocabulary size and collapse all code vectors together).
  void initGaussian(RNG &Rng, double Std);

  /// Frobenius-norm squared (for gradient-clipping and tests).
  double squaredNorm() const;

private:
  int NumRows = 0;
  int NumCols = 0;
  std::vector<double> Data;
};

// Naive reference kernels. Each allocates its result and accumulates in
// k-ascending order. The production forward/backward paths use the blocked,
// in-place, optionally thread-parallel kernels in nn/Kernels.h; the test
// suite asserts the two families agree.

/// C = A * B.
Matrix matmul(const Matrix &A, const Matrix &B);
/// C = A^T * B.
Matrix matmulTA(const Matrix &A, const Matrix &B);
/// C = A * B^T.
Matrix matmulTB(const Matrix &A, const Matrix &B);
/// A + B broadcasting B over rows when B has one row.
Matrix addRowBroadcast(const Matrix &A, const Matrix &B);
/// Column-wise sum producing a 1 x Cols matrix.
Matrix sumRows(const Matrix &A);

} // namespace nv

#endif // NV_NN_MATRIX_H
