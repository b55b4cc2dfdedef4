#include "opmap/viz/html_report.h"

#include <algorithm>
#include <fstream>

#include "opmap/common/string_util.h"

namespace opmap {

namespace {

std::string HtmlEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// One horizontal SVG bar pair (good/bad) with CI whiskers for a value.
// `scale` maps confidence 1.0 to the full bar width.
void AppendValueChart(const ValueComparison& v, const std::string& label,
                      const std::string& good, const std::string& bad,
                      double scale, std::string* out) {
  const int width = 420;
  const int bar_h = 14;
  const int row_h = 2 * bar_h + 14;
  auto bar = [&](double cf, double e, int y, const char* fill,
                 const std::string& name, int64_t n) {
    const double w = std::min(1.0, cf / scale) * width;
    const double whisker_lo = std::max(0.0, cf - e) / scale * width;
    const double whisker_hi = std::min(1.0, (cf + e) / scale) * width;
    std::string s;
    s += "<rect x='120' y='" + std::to_string(y) + "' width='" +
         FormatDouble(w, 1) + "' height='" + std::to_string(bar_h) +
         "' fill='" + fill + "'/>";
    // CI whisker: a thin line spanning [cf-e, cf+e].
    s += "<line x1='" + FormatDouble(120 + whisker_lo, 1) + "' y1='" +
         std::to_string(y + bar_h / 2) + "' x2='" +
         FormatDouble(120 + whisker_hi, 1) + "' y2='" +
         std::to_string(y + bar_h / 2) +
         "' stroke='#333' stroke-width='1.5'/>";
    s += "<text x='0' y='" + std::to_string(y + bar_h - 3) +
         "' font-size='11'>" + HtmlEscape(name) + "</text>";
    s += "<text x='" + FormatDouble(124 + whisker_hi, 1) + "' y='" +
         std::to_string(y + bar_h - 3) + "' font-size='11'>" +
         FormatPercent(cf, 2) + " &#177;" + FormatPercent(e, 2) + " (n=" +
         std::to_string(n) + ")</text>";
    *out += s;
  };
  *out += "<div class='value'><div class='vlabel'>" + HtmlEscape(label);
  if (v.w > 0) {
    *out += " <span class='w'>W=" + FormatDouble(v.w, 1) + "</span>";
  }
  *out += "</div><svg width='680' height='" + std::to_string(row_h) + "'>";
  bar(v.cf1, v.e1, 2, "#2a9d4e", good, v.n1);
  bar(v.cf2, v.e2, 2 + bar_h + 4, "#d04a3a", bad, v.n2);
  *out += "</svg></div>\n";
}

void AppendAttributeSection(const AttributeComparison& cmp,
                            const Schema& schema,
                            const ComparisonResult& result, int rank,
                            std::string* out) {
  const Attribute& attr = schema.attribute(cmp.attribute);
  *out += "<section><h3>";
  if (rank >= 0) out->append("#").append(std::to_string(rank + 1)).append(" ");
  *out += HtmlEscape(attr.name()) + " &mdash; M = " +
          FormatDouble(cmp.interestingness, 2) + " (normalized " +
          FormatDouble(cmp.normalized, 4) + ")";
  if (cmp.is_property) {
    *out += " <span class='property'>property attribute</span>";
  }
  *out += "</h3>\n";
  double scale = 0;
  for (const ValueComparison& v : cmp.values) {
    scale = std::max({scale, v.cf1 + v.e1, v.cf2 + v.e2});
  }
  if (scale <= 0) scale = 1.0;
  for (const ValueComparison& v : cmp.values) {
    AppendValueChart(v, attr.label(v.value), result.label_a, result.label_b,
                     scale, out);
  }
  *out += "</section>\n";
}

}  // namespace

std::string RenderHtmlReport(const ComparisonResult& result,
                             const Schema& schema,
                             const HtmlReportOptions& options) {
  const Attribute& base = schema.attribute(result.spec.attribute);
  std::string out;
  out += "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>\n<title>" +
         HtmlEscape(options.title) + "</title>\n<style>\n"
         "body{font-family:sans-serif;max-width:860px;margin:2em auto;}\n"
         "table{border-collapse:collapse;}td,th{border:1px solid #bbb;"
         "padding:4px 10px;text-align:left;}\n"
         ".property{background:#ffe9a8;padding:2px 6px;border-radius:4px;"
         "font-size:0.7em;}\n"
         ".vlabel{font-weight:bold;margin-top:6px;}\n"
         ".w{color:#d04a3a;font-weight:normal;font-size:0.85em;}\n"
         "</style></head><body>\n";
  out += "<h1>" + HtmlEscape(options.title) + "</h1>\n";

  out += "<h2>Compared rules</h2>\n<table>\n"
         "<tr><th></th><th>rule</th><th>confidence</th><th>population"
         "</th></tr>\n";
  const std::string target =
      schema.class_attribute().label(result.spec.target_class);
  out += "<tr><td>good</td><td>" + HtmlEscape(base.name()) + " = " +
         HtmlEscape(result.label_a) + " &rarr; " + HtmlEscape(target) +
         "</td><td>" + FormatPercent(result.cf1, 3) + "</td><td>" +
         std::to_string(result.n_d1) + "</td></tr>\n";
  out += "<tr><td>bad</td><td>" + HtmlEscape(base.name()) + " = " +
         HtmlEscape(result.label_b) + " &rarr; " + HtmlEscape(target) +
         "</td><td>" + FormatPercent(result.cf2, 3) + "</td><td>" +
         std::to_string(result.n_d2) + "</td></tr>\n</table>\n";
  for (const std::string& w : result.warnings) {
    out += "<p><em>warning: " + HtmlEscape(w) + "</em></p>\n";
  }

  out += "<h2>Ranked distinguishing attributes</h2>\n<table>\n"
         "<tr><th>rank</th><th>attribute</th><th>M</th><th>normalized"
         "</th></tr>\n";
  for (size_t i = 0; i < result.ranked.size(); ++i) {
    const AttributeComparison& cmp = result.ranked[i];
    out += "<tr><td>" + std::to_string(i + 1) + "</td><td>" +
           HtmlEscape(schema.attribute(cmp.attribute).name()) + "</td><td>" +
           FormatDouble(cmp.interestingness, 2) + "</td><td>" +
           FormatDouble(cmp.normalized, 4) + "</td></tr>\n";
  }
  out += "</table>\n";

  const int detail = std::min<int>(options.top_attributes,
                                   static_cast<int>(result.ranked.size()));
  for (int i = 0; i < detail; ++i) {
    AppendAttributeSection(result.ranked[static_cast<size_t>(i)], schema,
                           result, i, &out);
  }

  if (options.include_properties && !result.properties.empty()) {
    out += "<h2>Property attributes (data artifacts)</h2>\n";
    for (const AttributeComparison& cmp : result.properties) {
      AppendAttributeSection(cmp, schema, result, -1, &out);
    }
  }

  if (options.impressions != nullptr) {
    out += "<h2>General impressions</h2>\n<pre>" +
           HtmlEscape(
               FormatGeneralImpressions(*options.impressions, schema)) +
           "</pre>\n";
  }

  out += "</body></html>\n";
  return out;
}

Status WriteHtmlReport(const ComparisonResult& result, const Schema& schema,
                       const std::string& path,
                       const HtmlReportOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  out << RenderHtmlReport(result, schema, options);
  if (!out) return Status::IOError("write failure");
  return Status::OK();
}

}  // namespace opmap
