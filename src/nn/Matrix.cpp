//===- nn/Matrix.cpp - Dense matrix for the NN library --------------------===//

#include "nn/Matrix.h"

#include <algorithm>
#include <cmath>

using namespace nv;

void Matrix::fill(double Value) {
  std::fill(Data.begin(), Data.end(), Value);
}

Matrix &Matrix::operator+=(const Matrix &Other) {
  assert(NumRows == Other.NumRows && NumCols == Other.NumCols &&
         "shape mismatch in +=");
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] += Other.Data[I];
  return *this;
}

Matrix &Matrix::operator-=(const Matrix &Other) {
  assert(NumRows == Other.NumRows && NumCols == Other.NumCols &&
         "shape mismatch in -=");
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] -= Other.Data[I];
  return *this;
}

Matrix &Matrix::operator*=(double Scale) {
  for (double &V : Data)
    V *= Scale;
  return *this;
}

void Matrix::initXavier(RNG &Rng) {
  const double Scale =
      std::sqrt(6.0 / std::max(1, NumRows + NumCols));
  for (double &V : Data)
    V = Rng.nextUniform(-Scale, Scale);
}

void Matrix::initGaussian(RNG &Rng, double Std) {
  for (double &V : Data)
    V = Std * Rng.nextGaussian();
}

double Matrix::squaredNorm() const {
  double Sum = 0.0;
  for (double V : Data)
    Sum += V * V;
  return Sum;
}

Matrix nv::matmul(const Matrix &A, const Matrix &B) {
  assert(A.cols() == B.rows() && "matmul shape mismatch");
  Matrix C(A.rows(), B.cols());
  for (int I = 0; I < A.rows(); ++I) {
    const double *ARow = A.rowPtr(I);
    double *CRow = C.rowPtr(I);
    for (int K = 0; K < A.cols(); ++K) {
      const double AVal = ARow[K];
      if (AVal == 0.0)
        continue;
      const double *BRow = B.rowPtr(K);
      for (int J = 0; J < B.cols(); ++J)
        CRow[J] += AVal * BRow[J];
    }
  }
  return C;
}

Matrix nv::matmulTA(const Matrix &A, const Matrix &B) {
  assert(A.rows() == B.rows() && "matmulTA shape mismatch");
  Matrix C(A.cols(), B.cols());
  for (int K = 0; K < A.rows(); ++K) {
    const double *ARow = A.rowPtr(K);
    const double *BRow = B.rowPtr(K);
    for (int I = 0; I < A.cols(); ++I) {
      const double AVal = ARow[I];
      if (AVal == 0.0)
        continue;
      double *CRow = C.rowPtr(I);
      for (int J = 0; J < B.cols(); ++J)
        CRow[J] += AVal * BRow[J];
    }
  }
  return C;
}

Matrix nv::matmulTB(const Matrix &A, const Matrix &B) {
  assert(A.cols() == B.cols() && "matmulTB shape mismatch");
  Matrix C(A.rows(), B.rows());
  for (int I = 0; I < A.rows(); ++I) {
    const double *ARow = A.rowPtr(I);
    double *CRow = C.rowPtr(I);
    for (int J = 0; J < B.rows(); ++J) {
      const double *BRow = B.rowPtr(J);
      double Sum = 0.0;
      for (int K = 0; K < A.cols(); ++K)
        Sum += ARow[K] * BRow[K];
      CRow[J] = Sum;
    }
  }
  return C;
}

Matrix nv::addRowBroadcast(const Matrix &A, const Matrix &B) {
  assert(B.rows() == 1 && A.cols() == B.cols() &&
         "row broadcast shape mismatch");
  Matrix C = A;
  for (int I = 0; I < A.rows(); ++I)
    for (int J = 0; J < A.cols(); ++J)
      C.at(I, J) += B.at(0, J);
  return C;
}

Matrix nv::sumRows(const Matrix &A) {
  Matrix C(1, A.cols());
  for (int I = 0; I < A.rows(); ++I)
    for (int J = 0; J < A.cols(); ++J)
      C.at(0, J) += A.at(I, J);
  return C;
}
