#ifndef OPMAP_TESTS_TEST_UTIL_H_
#define OPMAP_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "opmap/common/status.h"
#include "opmap/data/dataset.h"

// Asserts that a Status-returning expression is OK.
#define ASSERT_OK(expr)                                  \
  do {                                                   \
    const ::opmap::Status _st = (expr);                  \
    ASSERT_TRUE(_st.ok()) << _st.ToString();             \
  } while (false)

#define EXPECT_OK(expr)                                  \
  do {                                                   \
    const ::opmap::Status _st = (expr);                  \
    EXPECT_TRUE(_st.ok()) << _st.ToString();             \
  } while (false)

// Asserts a Result is OK and moves its value into `lhs`.
#define ASSERT_OK_AND_ASSIGN(lhs, expr)                       \
  auto OPMAP_CONCAT_(_test_res_, __LINE__) = (expr);          \
  ASSERT_TRUE(OPMAP_CONCAT_(_test_res_, __LINE__).ok())       \
      << OPMAP_CONCAT_(_test_res_, __LINE__).status().ToString(); \
  lhs = std::move(OPMAP_CONCAT_(_test_res_, __LINE__)).MoveValue()

namespace opmap::test {

/// Builds a small all-categorical schema: attributes given as
/// (name, labels) pairs; the last attribute is the class.
inline Schema MakeSchema(
    const std::vector<std::pair<std::string, std::vector<std::string>>>&
        attrs) {
  std::vector<Attribute> list;
  for (const auto& [name, labels] : attrs) {
    list.push_back(Attribute::Categorical(name, labels));
  }
  auto result =
      Schema::Make(std::move(list), static_cast<int>(attrs.size()) - 1);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.MoveValue();
}

/// `prefix` followed by the decimal `i` ("v" + 7 -> "v7"). Built by
/// append: GCC 12 at -O3 raises a false -Wrestrict on
/// `"v" + std::to_string(i)`.
inline std::string NumberedLabel(const char* prefix, int i) {
  std::string label = prefix;
  label.append(std::to_string(i));
  return label;
}

/// Appends `count` identical rows of categorical codes.
inline void AppendRows(Dataset* dataset, const std::vector<ValueCode>& codes,
                       int64_t count) {
  std::vector<Cell> cells;
  for (ValueCode c : codes) cells.push_back(Cell::Categorical(c));
  for (int64_t i = 0; i < count; ++i) {
    auto st = dataset->AppendRow(cells);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
}

}  // namespace opmap::test

#endif  // OPMAP_TESTS_TEST_UTIL_H_
