#!/usr/bin/env bash
# Smoke test for the example binaries: each must run at a reduced scale and
# print the markers that indicate its scenario worked. Arguments: the four
# example binary paths (quickstart, call_log_analysis,
# manufacturing_defects, explorer).
set -euo pipefail

QUICKSTART="$1"
CALL_LOG="$2"
MANUFACTURING="$3"
EXPLORER="$4"

fail() { echo "FAIL: $1" >&2; exit 1; }

out="$("$QUICKSTART")"
grep -q "Ranked distinguishing attributes" <<<"$out" \
    || fail "quickstart report"
grep -q "TimeOfCall" <<<"$out" || fail "quickstart finds TimeOfCall"
grep -q "morning" <<<"$out" || fail "quickstart morning breakdown"

out="$("$CALL_LOG" --records=30000 --attributes=12)"
grep -q "Overall visualization" <<<"$out" || fail "call_log overview"
grep -q "Most influential attributes" <<<"$out" || fail "call_log GI"
grep -q "Restricted mining under" <<<"$out" || fail "call_log drilldown"
grep -q "#1  TimeOfCall" <<<"$out" || fail "call_log planted cause"

out="$("$MANUFACTURING" --rows=20000)"
grep -q "OvenTempC" <<<"$out" || fail "manufacturing cause"
grep -q "PROPERTY ATTRIBUTE\|property" <<<"$out" \
    || fail "manufacturing property attribute"

out="$(printf 'open PhoneModel\ndrill TimeOfCall\nslice PhoneModel ph03\nback\ncompare PhoneModel ph01 ph03 dropped-while-in-progress\nview TimeOfCall\nbogus\nquit\n' \
    | "$EXPLORER" --records=20000 --attributes=10)"
grep -q "view: PhoneModel > drill TimeOfCall" <<<"$out" \
    || fail "explorer olap path"
grep -q "Ranked distinguishing attributes" <<<"$out" \
    || fail "explorer compare"
grep -q "unknown command 'bogus'" <<<"$out" || fail "explorer errors"

echo "PASS"
