//===- support/Table.h - ASCII table / series printing ----------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pretty-printers for the bench harnesses. Every paper figure is rendered
/// as either a row/column table (bar charts) or a sampled series (training
/// curves); these helpers keep the output format uniform across benches.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SUPPORT_TABLE_H
#define NV_SUPPORT_TABLE_H

#include <string>
#include <vector>

namespace nv {

/// A simple column-aligned ASCII table.
///
/// Usage:
/// \code
///   Table T({"bench", "baseline", "RL"});
///   T.addRow({"s1", "1.00", "2.41"});
///   T.print(std::cout);
/// \endcode
class Table {
public:
  explicit Table(std::vector<std::string> Header);

  /// Appends one row; must have the same arity as the header.
  void addRow(std::vector<std::string> Row);

  /// Convenience: formats doubles with \p Precision decimals.
  static std::string fmt(double Value, int Precision = 2);

  /// Renders the table to \p OS with column alignment and a rule under the
  /// header.
  void print(std::ostream &OS) const;

  size_t numRows() const { return Rows.size(); }

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

/// A named (step, value) series, used to print training curves in text form
/// (reward mean / training loss per paper Figs 5-6).
class Series {
public:
  explicit Series(std::string Name) : Name(std::move(Name)) {}

  void add(double Step, double Value) { Points.push_back({Step, Value}); }

  const std::string &name() const { return Name; }
  size_t size() const { return Points.size(); }

  /// Prints up to \p MaxPoints evenly sampled points as "step value" pairs.
  void print(std::ostream &OS, size_t MaxPoints = 20) const;

private:
  struct Point {
    double Step;
    double Value;
  };
  std::string Name;
  std::vector<Point> Points;
};

} // namespace nv

#endif // NV_SUPPORT_TABLE_H
