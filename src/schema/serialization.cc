#include "schema/serialization.h"

#include <cstdio>
#include <sstream>

#include "common/string_util.h"

namespace mube {

namespace {

bool IsCommentOrBlank(std::string_view line) {
  std::string_view t = Trim(line);
  return t.empty() || t.front() == '#';
}

}  // namespace

std::string SerializeUniverse(const Universe& universe) {
  std::ostringstream out;
  for (const Source& s : universe.sources()) {
    out << "source " << s.name() << "\n";
    for (const Attribute& a : s.attributes()) {
      out << "attr " << a.name;
      if (a.concept_id != kNoConcept) out << " ; concept " << a.concept_id;
      out << "\n";
    }
    out << "cardinality " << s.cardinality() << "\n";
    for (const auto& [name, value] : s.characteristics().values()) {
      // %.17g is the shortest format guaranteed to round-trip a double.
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out << "char " << name << " " << buf << "\n";
    }
    out << "end\n";
  }
  return out.str();
}

Result<Universe> ParseUniverse(std::string_view text) {
  Universe universe;
  bool in_source = false;
  Source current;
  uint64_t explicit_cardinality = 0;
  bool has_cardinality = false;
  int line_no = 0;

  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_no;
    if (IsCommentOrBlank(raw_line)) continue;
    std::string_view line = Trim(raw_line);
    auto fail = [&](const std::string& why) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": " + why);
    };

    if (StartsWith(line, "source ")) {
      if (in_source) return fail("nested 'source' (missing 'end'?)");
      in_source = true;
      current = Source(0, std::string(Trim(line.substr(7))));
      explicit_cardinality = 0;
      has_cardinality = false;
    } else if (line == "end") {
      if (!in_source) return fail("'end' without 'source'");
      if (has_cardinality) current.set_cardinality(explicit_cardinality);
      if (current.attribute_count() == 0) {
        return fail("source '" + current.name() + "' has no attributes");
      }
      universe.AddSource(std::move(current));
      in_source = false;
    } else if (StartsWith(line, "attr ")) {
      if (!in_source) return fail("'attr' outside 'source'");
      std::string_view rest = Trim(line.substr(5));
      int32_t concept_id = kNoConcept;
      size_t semi = rest.find(';');
      if (semi != std::string_view::npos) {
        std::string_view annotation = Trim(rest.substr(semi + 1));
        rest = Trim(rest.substr(0, semi));
        if (!StartsWith(annotation, "concept ")) {
          return fail("unknown attribute annotation: " +
                      std::string(annotation));
        }
        uint64_t id = 0;
        MUBE_RETURN_IF_ERROR(ParseUint64(Trim(annotation.substr(8)), &id));
        concept_id = static_cast<int32_t>(id);
      }
      if (rest.empty()) return fail("empty attribute name");
      current.AddAttribute(Attribute(std::string(rest), concept_id));
    } else if (StartsWith(line, "cardinality ")) {
      if (!in_source) return fail("'cardinality' outside 'source'");
      MUBE_RETURN_IF_ERROR(
          ParseUint64(Trim(line.substr(12)), &explicit_cardinality));
      has_cardinality = true;
    } else if (StartsWith(line, "char ")) {
      if (!in_source) return fail("'char' outside 'source'");
      std::vector<std::string> parts = SplitAndTrim(line.substr(5), ' ');
      if (parts.size() != 2) return fail("expected 'char <name> <value>'");
      double value = 0.0;
      MUBE_RETURN_IF_ERROR(ParseDouble(parts[1], &value));
      current.characteristics().Set(parts[0], value);
    } else {
      return fail("unknown directive: " + std::string(line));
    }
  }
  if (in_source) {
    return Status::InvalidArgument("unterminated 'source' block at EOF");
  }
  return universe;
}

std::string SerializeMediatedSchema(const MediatedSchema& schema,
                                    const Universe& universe) {
  std::string out;
  for (const GlobalAttribute& ga : schema.gas()) {
    for (size_t i = 0; i < ga.members().size(); ++i) {
      const AttributeRef& ref = ga.members()[i];
      if (i > 0) out += ", ";
      out += universe.source(ref.source_id).name();
      out += ".";
      out += universe.attribute(ref).name;
    }
    out += "\n";
  }
  return out;
}

Result<GlobalAttribute> ParseGlobalAttribute(std::string_view line,
                                             const Universe& universe) {
  GlobalAttribute ga;
  for (const std::string& member : SplitAndTrim(line, ',')) {
    // Greedy longest source-name prefix match: source names may contain
    // dots ("aceticket.com"), so try every '.' split from the right.
    bool resolved = false;
    for (size_t pos = member.rfind('.'); pos != std::string::npos;
         pos = (pos == 0 ? std::string::npos : member.rfind('.', pos - 1))) {
      const std::string source_name = member.substr(0, pos);
      const std::string attr_name = member.substr(pos + 1);
      std::optional<uint32_t> sid = universe.FindSource(source_name);
      if (!sid.has_value()) continue;
      std::optional<uint32_t> aidx =
          universe.source(*sid).FindAttribute(attr_name);
      if (!aidx.has_value()) {
        return Status::NotFound("source '" + source_name +
                                "' has no attribute '" + attr_name + "'");
      }
      if (!ga.Insert(AttributeRef(*sid, *aidx))) {
        return Status::InvalidArgument(
            "GA has two attributes from source '" + source_name +
            "' (violates Definition 1): " + member);
      }
      resolved = true;
      break;
    }
    if (!resolved) {
      return Status::NotFound("cannot resolve GA member '" + member + "'");
    }
  }
  if (!ga.IsValid()) {
    return Status::InvalidArgument("GA line is empty or invalid: " +
                                   std::string(line));
  }
  return ga;
}

Result<MediatedSchema> ParseMediatedSchema(std::string_view text,
                                           const Universe& universe) {
  MediatedSchema schema;
  for (const std::string& line : Split(text, '\n')) {
    if (IsCommentOrBlank(line)) continue;
    MUBE_ASSIGN_OR_RETURN(GlobalAttribute ga,
                          ParseGlobalAttribute(line, universe));
    schema.Add(std::move(ga));
  }
  if (!schema.IsWellFormed()) {
    return Status::InvalidArgument(
        "parsed schema is not well-formed (overlapping GAs?)");
  }
  return schema;
}

}  // namespace mube
