"""Mutation checks: each mutant is one exact text edit to a file under src/
or tests/, with the tier-1 tests that must fail once it is made.

Run from any directory:

    python3 tests/mutants.py

For each mutant the script copies src/ and tests/ to a temporary
directory, makes the edit there and runs the mutant's tests with pytest;
the working tree is never edited.  First the same tests run once on an
unedited copy, where they must pass.  Each mutant prints one line: killed
or ALIVE, and its time.  The script exits 1 if a mutant survives, if a
listed test does not fail, or if a mutant's old text does not occur
exactly once.  Its name does not match pytest's test-file patterns, so the
suite does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BRANCHING = "tests/test_branching.py::"
ROW_CHECK = BRANCHING + "TestRowChecks::test_bad_row_raises[%s]"
CLI = "tests/test_cli.py::"
PRINTED = CLI + "TestPrintedFromRows::"
FROZEN = CLI + "TestFrozenStdout::test_command[%s]"
STREAM = "tests/test_sing_smooth.py::TestStream::"
ALGEBRA = "tests/test_cover_algebra.py::"
STABLE = "tests/test_sing_stable.py::TestBoundaryComponents::"
GRAPHS = "tests/test_stable_graphs.py::"

# (name, file, old text, new text, node ids that must fail)
MUTANTS = [
    ("prime_shapes keeps k = 1", "src/cycliccovers/combinat.py",
     "if term % (p - 1) == 0 and term != p - 1)", "if term % (p - 1) == 0)",
     [BRANCHING + "TestEnumeration::test_shapes_match_enumeration",
      BRANCHING + "TestPrimeOrbitCount::test_nonzero_shapes_are_admissible_shapes",
      "tests/test_acceptance.py::test_criterion_1_codimension_exception_scan",
      "tests/test_stable_graphs.py::TestStructureSearch::test_matches_unpruned_search[3-5]"]),
    ("the reach table rotates by a - 1", "src/cycliccovers/branching.py",
     "(sums[t - w] << a | sums[t - w] >> (d - a))",
     "(sums[t - w] << a - 1 | sums[t - w] >> (d - a + 1))",
     [BRANCHING + "TestReachTable::test_matches_brute_force[7]",
      BRANCHING + "TestPrimeOrbitCount::test_count_matches_enumeration[10]"]),
    ("a free tuple is filed under the next residue", "src/cycliccovers/combinat.py",
     "menu[residue_sum(free) % d]", "menu[(residue_sum(free) + 1) % d]",
     ["tests/test_combinat.py::test_free_menu_files_each_tuple_under_its_residue_sum",
      "tests/test_stable_graphs.py::TestStructureSearch::test_class_counts[4-3]",
      "tests/test_stable_graphs.py::TestEnumeration::test_filter_applied"]),
    ("loop pairs are left unsorted", "src/cycliccovers/stable_graphs.py",
     "tuple(sorted(pair)) if loop else pair for pair in images",
     "pair for pair in images",
     ["tests/test_stable_graphs.py::TestScaledPairs::test_unit_action_on_label_pairs[5]",
      "tests/test_stable_graphs.py::TestStructureSearch::test_class_counts[4-5]",
      "tests/test_stable_graphs.py::TestEnumeration::test_filter_applied"]),
    ("the branch count bound is one too loose", "src/cycliccovers/branching.py",
     "if k > terms[0]:", "if k > terms[0] + 1:",
     [BRANCHING + "TestBranchCountBound::test_bound_is_tight[_necklace_rows-4-3]",
      BRANCHING + "TestBranchCountBound::test_bound_is_tight[_residue_rows-5-4]"]),
    ("the branch count bound is one too tight", "src/cycliccovers/branching.py",
     "if k > terms[0]:", "if k >= terms[0]:",
     [BRANCHING + "TestBranchCountBound::test_bound_is_tight[_necklace_rows-4-3]",
      BRANCHING + "TestBranchCountBound::test_bound_is_tight[_residue_rows-5-4]"]),
    ("the row check drops the branch count bound", "src/cycliccovers/branching.py",
     'raise AssertionError("branch count bound violated")', "pass",
     [ROW_CHECK % "_necklace_rows-4-3-row0-branch count bound violated",
      ROW_CHECK % "_residue_rows-5-4-row5-branch count bound violated"]),
    ("the row check skips the residue sum", "src/cycliccovers/branching.py",
     "if (sum(map(mul, residues, counts)) % d or not 0 <= h",
     "if (not 0 <= h",
     [ROW_CHECK % "_necklace_rows-4-3-row1-inconsistent quotient genus",
      ROW_CHECK % "_residue_rows-5-4-row6-inconsistent quotient genus"]),
    ("the row check skips the branching term", "src/cycliccovers/branching.py",
     "or terms[h] != (k * (d - 1) if prime else sum(map(mul, weights, counts)))):",
     "):",
     [ROW_CHECK % "_necklace_rows-4-3-row2-inconsistent quotient genus",
      ROW_CHECK % "_residue_rows-5-4-row7-inconsistent quotient genus"]),
    ("the row check wraps h round the genus relation", "src/cycliccovers/branching.py",
     "or not 0 <= h < len(terms)", "or not h < len(terms)",
     [ROW_CHECK % "_necklace_rows-4-3-row4-inconsistent quotient genus",
      ROW_CHECK % "_residue_rows-5-4-row9-inconsistent quotient genus"]),
    ("the shared helper drops the codimension cross-check", "src/cycliccovers/branching.py",
     "2 * codim != 6 * (d - 1) * (h - 1) + k * (3 * (d - 1) - 2):", "False:",
     [BRANCHING + "TestLocus::test_codim_cross_check_once_per_shape"]),
    ("the table line swaps dim and codim", "src/cycliccovers/cli.py",
     '" dim=%(dim)d codim=%(codim)d\\n")', '" dim=%(codim)d codim=%(dim)d\\n")',
     [PRINTED + "test_report[sing-genera0-table]", PRINTED + "test_report[sing-bar-genera1-table]",
      FROZEN % "sing --genus 5"]),
    ("a special row prints as a plain component", "src/cycliccovers/cli.py",
     "if h in special and special[h][counts].verdict is not Verdict.COMPONENT:", "if False:",
     [PRINTED + "test_report[sing-genera0-table]", PRINTED + "test_report[sing-genera0-doc]",
      CLI + "TestSing::test_genus3_counts", CLI + "TestSing::test_doc_roundtrip"]),
    ("a chunk drops its last row", "src/cycliccovers/cli.py",
     "rows[start:start + _CHUNK]", "rows[start:start + _CHUNK - 1]",
     [PRINTED + "test_block_longer_than_a_chunk[table]",
      PRINTED + "test_block_longer_than_a_chunk[doc]",
      CLI + "TestDocWriter::test_component_rendered_from_its_fields"]),
    ("the separator between two chunks of a doc list is dropped", "src/cycliccovers/cli.py",
     'write(opener + "\\n    " + _json(item, "    "))', 'write("\\n    " + _json(item, "    "))',
     [PRINTED + "test_block_longer_than_a_chunk[doc]", PRINTED + "test_admissible[doc]",
      CLI + "TestDocWriter::test_list_value_may_be_an_iterator"]),
    ("the stream leaves the hyperelliptic divisor unclassified",
     "src/cycliccovers/sing_smooth.py",
     "SPECIAL_SHAPES | extra if", "SPECIAL_SHAPES if",
     [STREAM + "test_shape_shortcut_matches_classify", CLI + "TestSing::test_genus3_counts",
      FROZEN % "sing --genus 3"]),
    ("the records iterator makes every special row a component",
     "src/cycliccovers/sing_smooth.py",
     "special[locus.h][locus.counts] if locus.h in special", "None if False",
     [STREAM + "test_shape_shortcut_matches_classify",
      STREAM + "test_prime_blocks_in_counts_order",
      "tests/test_sing_stable.py::TestDecomposeSingBar::test_genus3"]),
    ("a character class adds its carries", "src/cycliccovers/cover_algebra.py",
     "lambda i: -(chi * i // ba.d))", "lambda i: chi * i // ba.d)",
     [ALGEBRA + "TestCharacterClasses::test_worked_example_order3",
      ALGEBRA + "TestCharacterClasses::test_matches_carry_recursion"]),
    ("irreducibility takes any order dividing m", "src/cycliccovers/cover_algebra.py",
     "irreducible=(order == m)", "irreducible=(m % order == 0)",
     [ALGEBRA + "TestIrreducibility::test_free_group_reducible",
      ALGEBRA + "TestOracleAgreement::test_exhaustive_small",
      CLI + "TestFrozenStdout::test_cover_check[table]"]),
    ("a carry at a + b = d is dropped", "src/cycliccovers/cover_algebra.py",
     "return 1 if a + b >= d else 0", "return 1 if a + b > d else 0",
     [ALGEBRA + "TestCarry", ALGEBRA + "TestMultiplicationExponents::test_examples"]),
    ("a branch assignment skips its validity check", "src/cycliccovers/cover_algebra.py",
     "if not _weighted_sum(self, d, neg).is_zero():", "if False:",
     [ALGEBRA + "TestValidation::test_rejects_broken_equivalence"]),
    ("every star with a loop is II-a", "src/cycliccovers/sing_stable.py",
     'excluded = "II-a" if a == b else None', 'excluded = "II-a"',
     [STABLE + "test_verdict_matches_oracle", STABLE + "test_matches_oracle"]),
    ("an elliptic tail is kept at p = 2", "src/cycliccovers/sing_stable.py",
     " or (p, gj, ends) == (2, 1, 1):", ":",
     [STABLE + "test_matches_oracle", FROZEN % "boundary --genus 4 --dmax 9"]),
    ("the special configuration counts 6^(g - 1)", "src/cycliccovers/sing_stable.py",
     "special = 2 * g * 6 ** g", "special = 2 * g * 6 ** (g - 1)",
     ["tests/test_sing_stable.py::TestAutBounds::test_genus3"]),
    ("a rigid star is flagged for review", "src/cycliccovers/sing_stable.py",
     "flags = (RIGID_FLAG,) if shape == (0, 3)", "flags = (REVIEW_FLAG,) if shape == (0, 3)",
     [STABLE + "test_genus2_order3_rigid_flag"]),
    ("a swapped loop smooths to one fixed point", "src/cycliccovers/stable_graphs.py",
     "free[e.u][0] += 2", "free[e.u][0] += 1",
     [GRAPHS + "TestSimplify::test_matches_stepwise_reference[2]",
      CLI + "TestFrozenStdout::test_graph_documents[simplify-table]"]),
    ("the total genus leaves out the cycles", "src/cycliccovers/stable_graphs.py",
     "b1 = len(G.edges) - len(G.vertices) + 1", "b1 = 0",
     [GRAPHS + "TestGenusAndStability::test_graph_genus"]),
    ("a detached enlargement may meet an identity component",
     "src/cycliccovers/stable_graphs.py", 'if kind == "detached" and meets:', "if False:",
     [CLI + "TestFrozenStdout::test_graph_documents[enlarge-table]"]),
    ("a quotient factor counts 3h - 2 + n", "src/cycliccovers/stable_graphs.py",
     "sum(3 * h - 3 + n for h, n in factors)", "sum(3 * h - 2 + n for h, n in factors)",
     [GRAPHS + "TestStratumDimension", FROZEN % "boundary --genus 4 --dmax 9"]),
    ("the Burnside oracle counts each unit order once", "tests/oracles.py",
     "total += _phi(m) * comb(", "total += comb(",
     [BRANCHING + "TestPrimeOrbitCount::test_count_matches_enumeration[10]"]),
]


def copy_tree(dest):
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part),
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))


def failed_tests(dest, node_ids):
    """The return code of pytest on the node ids in the copy at dest, and
    the listed node ids that failed there."""
    env = dict(os.environ, PYTHONPATH=os.path.join(dest, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "--tb=no", "-p", "no:cacheprovider",
         *node_ids], cwd=dest, env=env, capture_output=True, text=True, timeout=600)
    # A listed id fails when a failing node id is it or lies under it: one
    # of a class's tests, or one of a function's parameter sets.
    failing = [line[len("FAILED "):] for line in proc.stdout.splitlines()
               if line.startswith("FAILED ")]
    return proc.returncode, {nid for nid in node_ids for f in failing
                             if f == nid or f.startswith((nid + " - ", nid + "::", nid + "["))}


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        base = os.path.join(tmp, "base")
        copy_tree(base)
        every = sorted({nid for *_, node_ids in MUTANTS for nid in node_ids})
        code, _ = failed_tests(base, every)
        print("%s unedited copy: %d tests, %.2f s" % (
            "ok" if code == 0 else "FAIL (pytest exit %d)" % code, len(every),
            time.perf_counter() - start), flush=True)
        bad += code != 0
        for ix, (name, path, old, new, node_ids) in enumerate(MUTANTS):
            start = time.perf_counter()
            dest = os.path.join(tmp, "m%d" % ix)
            copy_tree(dest)
            with open(os.path.join(dest, path), encoding="utf-8") as fh:
                text = fh.read()
            if text.count(old) != 1:
                print("STALE %s: its old text occurs %d times in %s" % (
                    name, text.count(old), path), flush=True)
                bad += 1
                continue
            with open(os.path.join(dest, path), "w", encoding="utf-8") as fh:
                fh.write(text.replace(old, new))
            code, failed = failed_tests(dest, node_ids)
            alive = [nid for nid in node_ids if nid not in failed]
            verdict = "killed" if code == 1 and not alive else "ALIVE"
            print("%s %s: %d of %d tests failed%s, %.2f s" % (
                verdict, name, len(node_ids) - len(alive), len(node_ids),
                "" if code in (0, 1) else " (pytest exit %d)" % code,
                time.perf_counter() - start), flush=True)
            bad += verdict != "killed"
            shutil.rmtree(dest)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
