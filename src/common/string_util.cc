#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <exception>

namespace mube {

std::string ToLower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    out.push_back(static_cast<char>(std::tolower(c)));
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(s.substr(start));
      break;
    }
    parts.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::vector<std::string> SplitAndTrim(std::string_view s, char sep) {
  std::vector<std::string> parts;
  for (const std::string& raw : Split(s, sep)) {
    std::string_view trimmed = Trim(raw);
    if (!trimmed.empty()) parts.emplace_back(trimmed);
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string NormalizeAttributeName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  bool pending_space = false;
  for (unsigned char c : name) {
    if (std::isalnum(c)) {
      if (pending_space && !out.empty()) out.push_back(' ');
      pending_space = false;
      out.push_back(static_cast<char>(std::tolower(c)));
    } else {
      pending_space = true;
    }
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

Status ParseDouble(std::string_view token, double* out) {
  // std::from_chars<double> is not universally available; use stod with a
  // guard.
  try {
    size_t consumed = 0;
    std::string owned(token);
    *out = std::stod(owned, &consumed);
    if (consumed != owned.size()) {
      return Status::InvalidArgument("trailing junk in number: " + owned);
    }
  } catch (const std::exception&) {
    return Status::InvalidArgument("not a number: " + std::string(token));
  }
  return Status::OK();
}

Status ParseUint64(std::string_view token, uint64_t* out) {
  auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return Status::InvalidArgument("not an integer: " + std::string(token));
  }
  return Status::OK();
}

}  // namespace mube
