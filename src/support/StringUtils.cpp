//===- support/StringUtils.cpp - String helpers ---------------------------===//

#include "support/StringUtils.h"

using namespace nv;

std::vector<std::string> nv::split(const std::string &Text, char Sep) {
  std::vector<std::string> Parts;
  std::string Current;
  for (char C : Text) {
    if (C == Sep) {
      Parts.push_back(Current);
      Current.clear();
    } else {
      Current.push_back(C);
    }
  }
  Parts.push_back(Current);
  return Parts;
}

std::string nv::join(const std::vector<std::string> &Parts,
                     const std::string &Sep) {
  std::string Result;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

std::string nv::trim(const std::string &Text) {
  size_t Begin = 0;
  size_t End = Text.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(Text[Begin])))
    ++Begin;
  while (End > Begin &&
         std::isspace(static_cast<unsigned char>(Text[End - 1])))
    --End;
  return Text.substr(Begin, End - Begin);
}

bool nv::startsWith(const std::string &Text, const std::string &Prefix) {
  return Text.size() >= Prefix.size() &&
         Text.compare(0, Prefix.size(), Prefix) == 0;
}

bool nv::contains(const std::string &Text, const std::string &Needle) {
  return Text.find(Needle) != std::string::npos;
}

std::string nv::replaceAll(std::string Text, const std::string &From,
                           const std::string &To) {
  if (From.empty())
    return Text;
  size_t Pos = 0;
  while ((Pos = Text.find(From, Pos)) != std::string::npos) {
    Text.replace(Pos, From.size(), To);
    Pos += To.size();
  }
  return Text;
}
