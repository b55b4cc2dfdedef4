#include "opmap/discretize/discretizer.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "opmap/common/string_util.h"

namespace opmap {

ValueCode IntervalOf(double value, const std::vector<double>& cuts) {
  // Intervals are (c_{i-1}, c_i]; upper_bound gives the first cut > value,
  // i.e. the index of the interval whose upper bound is the first cut >= it.
  auto it = std::lower_bound(cuts.begin(), cuts.end(), value);
  // lower_bound: first cut >= value -> value <= cut, so value falls in the
  // interval ending at that cut.
  return static_cast<ValueCode>(it - cuts.begin());
}

std::vector<std::string> IntervalLabels(const std::vector<double>& cuts) {
  std::vector<std::string> labels;
  if (cuts.empty()) {
    labels.push_back("(-inf,+inf)");
    return labels;
  }
  labels.reserve(cuts.size() + 1);
  labels.push_back("(-inf," + FormatDouble(cuts.front(), 6) + "]");
  for (size_t i = 1; i < cuts.size(); ++i) {
    std::string label = "(";
    label.append(FormatDouble(cuts[i - 1], 6))
        .append(",")
        .append(FormatDouble(cuts[i], 6))
        .append("]");
    labels.push_back(std::move(label));
  }
  std::string last = "(";
  last.append(FormatDouble(cuts.back(), 6)).append(",+inf)");
  labels.push_back(std::move(last));
  return labels;
}

namespace {

Status CheckNoNaN(const std::vector<double>& values,
                  const std::string& attr_name) {
  for (double v : values) {
    if (std::isnan(v)) {
      return Status::InvalidArgument("attribute '" + attr_name +
                                     "' contains missing numeric values");
    }
  }
  return Status::OK();
}

// Replaces continuous column `attr` using the given cuts.
Status ApplyCuts(const Dataset& in, int attr, const std::vector<double>& cuts,
                 Schema* schema, std::vector<std::vector<ValueCode>>* cols) {
  const Attribute& old = in.schema().attribute(attr);
  Attribute interval_attr = Attribute::Categorical(
      old.name(), IntervalLabels(cuts), /*ordered=*/true);
  OPMAP_RETURN_NOT_OK(schema->ReplaceAttribute(attr, std::move(interval_attr)));
  auto& col = (*cols)[static_cast<size_t>(attr)];
  col.resize(static_cast<size_t>(in.num_rows()));
  const std::vector<double>& values = in.numeric_column(attr);
  for (int64_t r = 0; r < in.num_rows(); ++r) {
    col[static_cast<size_t>(r)] = IntervalOf(values[static_cast<size_t>(r)],
                                             cuts);
  }
  return Status::OK();
}

Result<Dataset> DiscretizeImpl(
    const Dataset& dataset,
    const std::function<Result<std::vector<double>>(int attr)>& cuts_for) {
  Schema schema = dataset.schema();
  const int n = schema.num_attributes();
  std::vector<std::vector<ValueCode>> new_cols(static_cast<size_t>(n));
  for (int a = 0; a < n; ++a) {
    if (dataset.schema().attribute(a).is_categorical()) continue;
    OPMAP_RETURN_NOT_OK(
        CheckNoNaN(dataset.numeric_column(a), schema.attribute(a).name()));
    OPMAP_ASSIGN_OR_RETURN(std::vector<double> cuts, cuts_for(a));
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    OPMAP_RETURN_NOT_OK(ApplyCuts(dataset, a, cuts, &schema, &new_cols));
  }
  Dataset out(schema);
  out.Reserve(dataset.num_rows());
  std::vector<Cell> row(static_cast<size_t>(n));
  for (int64_t r = 0; r < dataset.num_rows(); ++r) {
    for (int a = 0; a < n; ++a) {
      if (dataset.schema().attribute(a).is_categorical()) {
        row[static_cast<size_t>(a)] = Cell::Categorical(dataset.code(r, a));
      } else {
        row[static_cast<size_t>(a)] =
            Cell::Categorical(new_cols[static_cast<size_t>(a)][
                static_cast<size_t>(r)]);
      }
    }
    OPMAP_RETURN_NOT_OK(out.AppendRow(row));
  }
  return out;
}

}  // namespace

Result<Dataset> DiscretizeDataset(const Dataset& dataset,
                                  const Discretizer& discretizer) {
  const int class_attr = dataset.schema().class_index();
  const int num_classes = dataset.schema().num_classes();
  return DiscretizeImpl(dataset, [&](int attr) {
    return discretizer.ComputeCuts(dataset.numeric_column(attr),
                                   dataset.categorical_column(class_attr),
                                   num_classes);
  });
}

Result<Dataset> DiscretizeDatasetWithOverrides(
    const Dataset& dataset,
    const std::vector<std::pair<std::string, std::vector<double>>>& overrides,
    const Discretizer* fallback) {
  const int class_attr = dataset.schema().class_index();
  const int num_classes = dataset.schema().num_classes();
  return DiscretizeImpl(
      dataset, [&](int attr) -> Result<std::vector<double>> {
        const std::string& name = dataset.schema().attribute(attr).name();
        for (const auto& [override_name, cuts] : overrides) {
          if (override_name == name) return cuts;
        }
        if (fallback == nullptr) {
          return Status::InvalidArgument(
              "no manual cuts for continuous attribute '" + name +
              "' and no fallback discretizer");
        }
        return fallback->ComputeCuts(dataset.numeric_column(attr),
                                     dataset.categorical_column(class_attr),
                                     num_classes);
      });
}

}  // namespace opmap
