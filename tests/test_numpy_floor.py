"""src/ runs on the oldest numpy that pyproject.toml admits (numpy>=1.24).

The suite usually runs on numpy 2, where a name that numpy 2 added passes
every other test; this test reads the source for such names instead.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# top-level names that numpy 1.24 lacks: added in numpy 2, or (bool, long)
# removed in 1.24 and brought back in 2.0
NUMPY2_ONLY = ("vecdot", "matvec", "vecmat", "unique_values", "unique_counts",
               "unique_inverse", "unique_all", "concat", "astype", "permute_dims",
               "cumulative_sum", "cumulative_prod", "isdtype", "matrix_transpose", "unstack",
               "trapezoid", "pow", "bool", "long")
PATTERN = re.compile(r"\b(?:np|numpy)\.(%s)\b" % "|".join(NUMPY2_ONLY))


def test_pattern_tells_numpy2_names_from_their_older_neighbours():
    found = PATTERN.findall("np.vecdot(a, b); numpy.concat([a]); np.bool(x); np.astype(x, int)")
    assert found == ["vecdot", "concat", "bool", "astype"]
    assert not PATTERN.findall("np.concatenate([a]); np.bool_; x.astype(int); np.unique(x); "
                               "np.longdouble; np.power(a, 2)")


def test_src_uses_no_numpy2_only_name():
    hits = [f"{path.relative_to(SRC)}:{number}: np.{match}"
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            for match in PATTERN.findall(line)]
    assert not hits, "numpy 2 only names in src/: " + "; ".join(hits)
