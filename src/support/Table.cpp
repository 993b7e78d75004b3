//===- support/Table.cpp - ASCII table / series printing ------------------===//

#include "support/Table.h"

#include <cassert>
#include <iomanip>
#include <ostream>
#include <sstream>

using namespace nv;

Table::Table(std::vector<std::string> Header) : Header(std::move(Header)) {
  assert(!this->Header.empty() && "table needs at least one column");
}

void Table::addRow(std::vector<std::string> Row) {
  assert(Row.size() == Header.size() && "row arity must match header");
  Rows.push_back(std::move(Row));
}

std::string Table::fmt(double Value, int Precision) {
  std::ostringstream OS;
  OS << std::fixed << std::setprecision(Precision) << Value;
  return OS.str();
}

void Table::print(std::ostream &OS) const {
  std::vector<size_t> Widths(Header.size(), 0);
  for (size_t C = 0; C < Header.size(); ++C)
    Widths[C] = Header[C].size();
  for (const auto &Row : Rows)
    for (size_t C = 0; C < Row.size(); ++C)
      Widths[C] = std::max(Widths[C], Row[C].size());

  auto PrintRow = [&](const std::vector<std::string> &Row) {
    for (size_t C = 0; C < Row.size(); ++C) {
      OS << (C == 0 ? "" : "  ");
      OS << std::left << std::setw(static_cast<int>(Widths[C])) << Row[C];
    }
    OS << '\n';
  };

  PrintRow(Header);
  size_t Total = 0;
  for (size_t C = 0; C < Widths.size(); ++C)
    Total += Widths[C] + (C == 0 ? 0 : 2);
  OS << std::string(Total, '-') << '\n';
  for (const auto &Row : Rows)
    PrintRow(Row);
}

void Series::print(std::ostream &OS, size_t MaxPoints) const {
  OS << "series: " << Name << '\n';
  if (Points.empty()) {
    OS << "  (empty)\n";
    return;
  }
  const size_t N = Points.size();
  const size_t Stride = N <= MaxPoints ? 1 : (N + MaxPoints - 1) / MaxPoints;
  for (size_t I = 0; I < N; I += Stride)
    OS << "  step " << std::setw(8) << Points[I].Step << "  value "
       << Table::fmt(Points[I].Value, 4) << '\n';
  if ((N - 1) % Stride != 0)
    OS << "  step " << std::setw(8) << Points[N - 1].Step << "  value "
       << Table::fmt(Points[N - 1].Value, 4) << '\n';
}

