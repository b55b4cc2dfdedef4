#include "opmap/viz/export.h"

#include <vector>

#include "opmap/common/string_util.h"

namespace opmap {

namespace {

// Iterates every cell coordinate of `cube`.
template <typename Fn>
void ForEachCell(const RuleCube& cube, Fn&& fn) {
  std::vector<ValueCode> cell(static_cast<size_t>(cube.num_dims()), 0);
  for (;;) {
    fn(cell);
    int d = cube.num_dims() - 1;
    while (d >= 0 &&
           cell[static_cast<size_t>(d)] == cube.dim_size(d) - 1) {
      cell[static_cast<size_t>(d)] = 0;
      --d;
    }
    if (d < 0) break;
    ++cell[static_cast<size_t>(d)];
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

std::string CubeToCsv(const RuleCube& cube, int class_dim) {
  std::string out;
  for (int d = 0; d < cube.num_dims(); ++d) {
    if (d > 0) out += ",";
    out += cube.dim_name(d);
  }
  out += ",count,support";
  if (class_dim >= 0) out += ",confidence";
  out += "\n";
  const int64_t total = cube.Total();
  ForEachCell(cube, [&](const std::vector<ValueCode>& cell) {
    for (int d = 0; d < cube.num_dims(); ++d) {
      if (d > 0) out += ",";
      out += cube.label(d, cell[static_cast<size_t>(d)]);
    }
    const int64_t count = cube.count(cell);
    out.append(",").append(std::to_string(count));
    out.append(",").append(
        FormatDouble(total > 0 ? static_cast<double>(count) /
                                     static_cast<double>(total)
                               : 0.0,
                     6));
    if (class_dim >= 0) {
      out.append(",").append(FormatDouble(cube.Confidence(cell, class_dim), 6));
    }
    out += "\n";
  });
  return out;
}

std::string CubeToJson(const RuleCube& cube) {
  std::string out = "{\"dims\":[";
  for (int d = 0; d < cube.num_dims(); ++d) {
    if (d > 0) out += ",";
    out += "{\"name\":\"" + JsonEscape(cube.dim_name(d)) + "\",\"values\":[";
    for (ValueCode v = 0; v < cube.dim_size(d); ++v) {
      if (v > 0) out += ",";
      out.append("\"").append(JsonEscape(cube.label(d, v))).append("\"");
    }
    out += "]}";
  }
  out += "],\"cells\":[";
  bool first = true;
  ForEachCell(cube, [&](const std::vector<ValueCode>& cell) {
    const int64_t count = cube.count(cell);
    if (count == 0) return;
    if (!first) out += ",";
    first = false;
    out += "{\"cell\":[";
    for (size_t d = 0; d < cell.size(); ++d) {
      if (d > 0) out += ",";
      out += std::to_string(cell[d]);
    }
    out += "],\"count\":" + std::to_string(count) + "}";
  });
  out += "]}";
  return out;
}

namespace {

void AppendAttributeJson(const AttributeComparison& cmp, const Schema& schema,
                         std::string* out) {
  const Attribute& attr = schema.attribute(cmp.attribute);
  *out += "{\"attribute\":\"" + JsonEscape(attr.name()) + "\"";
  *out += ",\"interestingness\":" + FormatDouble(cmp.interestingness, 6);
  *out += ",\"normalized\":" + FormatDouble(cmp.normalized, 6);
  *out += ",\"is_property\":" + std::string(cmp.is_property ? "true" : "false");
  *out += ",\"property_ratio\":" + FormatDouble(cmp.property_ratio, 6);
  *out += ",\"values\":[";
  for (size_t k = 0; k < cmp.values.size(); ++k) {
    const ValueComparison& v = cmp.values[k];
    if (k > 0) *out += ",";
    *out += "{\"value\":\"" + JsonEscape(attr.label(v.value)) + "\"";
    *out += ",\"n1\":" + std::to_string(v.n1);
    *out += ",\"n2\":" + std::to_string(v.n2);
    *out += ",\"cf1\":" + FormatDouble(v.cf1, 6);
    *out += ",\"cf2\":" + FormatDouble(v.cf2, 6);
    *out += ",\"e1\":" + FormatDouble(v.e1, 6);
    *out += ",\"e2\":" + FormatDouble(v.e2, 6);
    *out += ",\"f\":" + FormatDouble(v.f, 6);
    *out += ",\"w\":" + FormatDouble(v.w, 6) + "}";
  }
  *out += "]}";
}

}  // namespace

std::string ComparisonToJson(const ComparisonResult& result,
                             const Schema& schema) {
  const Attribute& base = schema.attribute(result.spec.attribute);
  std::string out = "{";
  out += "\"attribute\":\"" + JsonEscape(base.name()) + "\"";
  out += ",\"value_a\":\"" + JsonEscape(result.label_a) + "\"";
  out += ",\"value_b\":\"" + JsonEscape(result.label_b) + "\"";
  out += ",\"target_class\":\"" +
         JsonEscape(
             schema.class_attribute().label(result.spec.target_class)) +
         "\"";
  out += ",\"cf1\":" + FormatDouble(result.cf1, 6);
  out += ",\"cf2\":" + FormatDouble(result.cf2, 6);
  out += ",\"n_d1\":" + std::to_string(result.n_d1);
  out += ",\"n_d2\":" + std::to_string(result.n_d2);
  out += ",\"ranked\":[";
  for (size_t i = 0; i < result.ranked.size(); ++i) {
    if (i > 0) out += ",";
    AppendAttributeJson(result.ranked[i], schema, &out);
  }
  out += "],\"properties\":[";
  for (size_t i = 0; i < result.properties.size(); ++i) {
    if (i > 0) out += ",";
    AppendAttributeJson(result.properties[i], schema, &out);
  }
  out += "]}";
  return out;
}

}  // namespace opmap
