"""Mutation table: small faults in src/ that named tests must catch.

    python tools/mutants.py

Run from the root of a checkout.  Each mutant names a file, an exact old
text that must occur in it once, the new text that replaces it, and the test
ids that must fail once it is in.  The checkout's src/, tests/ and
pyproject.toml are copied to a temporary directory; there the named tests
first run on the unchanged code, where they must pass, and then each mutant
runs alone, in one pytest child process at a time.  Hypothesis does not
shrink in the copy: a mutant needs one failing example, not the smallest.
The run exits 1 if an old text no longer matches, if a named test fails on
the unchanged code, or if a mutant survives: one of its tests passes or is
not collected.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


LAYERS = ("arith", "classify", "cli", "ehrhart", "linalg", "points", "polytope", "tensor", "tri2d")
ARITH, CLASSIFY, CLI, EHRHART, LINALG, POINTS, POLYTOPE, TENSOR, TRI2D = (f"src/lattens/{name}.py" for name in LAYERS)
(
    TEST_ARITH, TEST_CLASSIFY, TEST_CLI, TEST_EHRHART, TEST_LINALG, TEST_POINTS, TEST_POLYTOPE, TEST_TENSOR, TEST_TRI2D
) = (f"tests/test_{name}.py::" for name in LAYERS)
CONTRACT_FUZZER = TEST_CLI + "test_every_invocation_keeps_the_exit_code_contract"

MUTANTS = (
    Mutant(
        "relint nodes lose the sign (-1)^(m+r)",
        EHRHART,
        "repeat(w if k >= 0 else w * (-1) ** (m + r))",
        "repeat(w)",
        (
            TEST_EHRHART + "test_expansion_extrapolates_in_dimension_three",
            TEST_EHRHART + "test_reciprocity_nodes_match_the_positive_node_reference",
            TEST_EHRHART + "test_expansion_extrapolates_past_its_nodes",
        ),
    ),
    Mutant(
        "check_reciprocity's alternating sum built on the relint nodes",
        EHRHART,
        "expansion = _expansions(p, [r], positive=True)[0]",
        "expansion = _expansions(p, [r])[0]",
        (TEST_EHRHART + "test_reciprocity_walks_no_relint_dilate_for_its_expansions",),
    ),
    Mutant(
        "expansions walk the closed dilates 0..m+r, not the reciprocity nodes",
        EHRHART,
        "for a in [0 if positive else (m + r) // 2]",
        "for a in [0]",
        (
            TEST_EHRHART + "test_translation_covariance_enumerates_each_dilate_once",
            TEST_CLI + "test_ehrhart_scan_cap_sees_the_largest_closed_node",
        ),
    ),
    Mutant(
        "a negative rank reaches the walk",
        EHRHART,
        """    if min(ranks) < 0:
        raise ValueError("rank must be non-negative")
""",
        "",
        (TEST_EHRHART + "test_negative_ranks_are_refused_before_any_walk",),
    ),
    Mutant(
        "a negative rank reaches the moment's walk",
        EHRHART,
        """    if rank < 0:
        raise ValueError("rank must be non-negative")
    [[sums]] = _summer""",
        "    [[sums]] = _summer",
        (TEST_EHRHART + "test_negative_ranks_are_refused_before_any_walk",),
    ),
    Mutant(
        "the polytope reader lets a RecursionError through",
        CLI,
        "except (OSError, ValueError, RecursionError) as exc:",
        "except (OSError, ValueError) as exc:",
        (
            TEST_CLI + "test_undecodable_input_exits_two_with_a_json_error[deep-polytope]",
            TEST_CLI + "test_undecodable_input_prints_no_traceback",
            CONTRACT_FUZZER,
        ),
    ),
    Mutant(
        "main maps only a closed stdout, not every ValueError, to exit 2",
        CLI,
        "    except (ValueError, BrokenPipeError) as exc:",
        "    except BrokenPipeError as exc:",
        (
            TEST_CLI + "test_caps_exit_two",
            TEST_CLI + "test_undecodable_input_exits_two_with_a_json_error[non-utf8-stdin]",
            CONTRACT_FUZZER,
        ),
    ),
    Mutant(
        "main leaves the flush of stdout to the interpreter's exit",
        CLI,
        "        sys.stdout.flush()  # a closed stdout",
        "        # a closed stdout",
        (TEST_CLI + "test_closed_stdout_exits_two_with_a_json_error[buffered-count]",),
    ),
    Mutant(
        "rank --survey ignores the other options",
        CLI,
        "        if args.kernel or any(getattr(args, name) is not None for name in RANK_DEFAULTS):",
        "        if False:",
        (TEST_CLI + "test_rank_survey_refuses_the_other_options[kernel]",),
    ),
    Mutant(
        "a joined hull row loses the new point's bit",
        POLYTOPE,
        "(u * b - s * d) // g, t & w | 1 << i)",
        "(u * b - s * d) // g, t & w)",
        (TEST_POLYTOPE + "test_hull_rows_carry_their_tight_sets",),
    ),
    Mutant(
        "a face keeps its own full set among its facet rows",
        POLYTOPE,
        "for (c, d), s in zip(self.facet_inequalities, self._tight) if s & face != face]",
        "for (c, d), s in zip(self.facet_inequalities, self._tight)]",
        (TEST_POLYTOPE + "test_facets_of_faces_match_the_dot_product_rule",),
    ),
    Mutant(
        "_maximal takes the smallest sets first",
        POLYTOPE,
        "key=lambda i: rows[i][-1].bit_count(), reverse=True)",
        "key=lambda i: rows[i][-1].bit_count())",
        (TEST_POLYTOPE + "test_maximal_tight_keeps_first_of_equal_sets_in_order",),
    ),
    Mutant(
        "a projected row keeps the vertices tight on either row, not on both",
        POINTS,
        "if t := tu & td:",
        "if t := tu | td:",
        (TEST_POINTS + "test_levels_match_the_retested_projection",),
    ),
    Mutant(
        "a projected row tight at no vertex is kept",
        POINTS,
        "if t := tu & td:",
        "if (t := tu & td) or True:",
        (TEST_POINTS + "test_levels_match_the_retested_projection",),
    ),
    Mutant(
        "projected rows are left unsorted",
        POINTS,
        "    keep.sort(key=lambda row: row[2][0] * (lcd // row[2][1]), reverse=True)\n",
        "",
        (TEST_POINTS + "test_levels_match_the_retested_projection",),
    ),
    Mutant(
        "a full-dimensional frame's facet rows weigh nothing, so relint walks keep their boundary",
        POINTS,
        "levels = [[(a, b, (1, 1), t) for (a, b), t in zip(p.facet_inequalities, p._tight)]]",
        "levels = [[(a, b, (0, 1), t) for (a, b), t in zip(p.facet_inequalities, p._tight)]]",
        (
            TEST_POINTS + "test_frames_match_the_reference_frame",
            TEST_POINTS + "test_relint_examples",
            TEST_POINTS + "test_blocks_hold_the_reference_walks_runs_in_order",
        ),
    ),
    Mutant(
        "a polytope's tight sets hold every vertex on the valid side, not on the hyperplane",
        POLYTOPE,
        "if _dot(a, v) == b) for a, b in self.facet_inequalities)",
        "if _dot(a, v) <= b) for a, b in self.facet_inequalities)",
        (
            TEST_POINTS + "test_frames_match_the_reference_frame",
            TEST_POLYTOPE + "test_facets_of_faces_match_the_dot_product_rule",
        ),
    ),
    Mutant(
        "the pull-back plan adds 1 to every sum",
        EHRHART,
        "by_rank[i] = list(map(sub, map(acc.__getitem__, ends[1:]), map(acc.__getitem__, ends)))",
        "by_rank[i] = [s + 1 for s in map(sub, map(acc.__getitem__, ends[1:]), map(acc.__getitem__, ends))]",
        (
            TEST_EHRHART + "test_both_push_paths_match_point_sums[plan]",
            TEST_EHRHART + "test_both_push_paths_on_a_segment_in_z6_at_rank_12[plan]",
        ),
    ),
    Mutant(
        "the face sum's vertex and edge sums start at t = 1",
        EHRHART,
        "return (g + 1, *(int(faulhaber_sum(g, e))",
        "return (g, *(int(faulhaber_sum(g, e))",
        (
            TEST_EHRHART + "test_segment_moment_matches_discrete_moment",
            TEST_EHRHART + "test_check_reciprocity_on_lower_dimensional_instances",
        ),
    ),
    Mutant(
        "the one-point push adds 1 to every sum",
        EHRHART,
        "return _tensor_sum([_point_blocks(p, blocks) for blocks in segments], n, ranks)",
        "return [[[s + 1 for s in sums] for sums in by_rank]"
        " for by_rank in _tensor_sum([_point_blocks(p, blocks) for blocks in segments], n, ranks)]",
        (
            TEST_EHRHART + "test_both_push_paths_match_point_sums[one-point]",
            TEST_EHRHART + "test_both_push_paths_on_a_segment_in_z6_at_rank_12[one-point]",
        ),
    ),
    Mutant(
        "a chunk flush drops the block that overflowed",
        EHRHART,
        """                columns, counts = [[] for _ in columns], [0] * len(segments)
            for column""",
        """                columns, counts = [[] for _ in columns], [0] * len(segments)
                continue
            for column""",
        (
            TEST_EHRHART + "test_segmented_sums_match_the_run_by_run_reference",
            TEST_EHRHART + "test_expansions_sum_once_in_chunks_of_at_most_a_block",
        ),
    ),
    Mutant(
        "a chunk credits the first run of each segment to the previous one",
        EHRHART,
        "[sum(islice(terms, c)) for c in counts]",
        "[sum(islice(terms, c + 1)) for c in counts]",
        (
            TEST_EHRHART + "test_segmented_sums_match_the_run_by_run_reference",
            TEST_EHRHART + "test_reciprocity_nodes_match_the_positive_node_reference",
        ),
    ),
    Mutant(
        "the split of the flat sums into ranks starts one sum late",
        EHRHART,
        "[list(col[a:b]) for a, b in zip(ends, ends[1:])]",
        "[list(col[a + 1 : b + 1]) for a, b in zip(ends, ends[1:])]",
        (
            TEST_EHRHART + "test_segmented_sums_match_the_run_by_run_reference",
            TEST_EHRHART + "test_check_translation_covariance_examples",
        ),
    ),
    Mutant(
        "a word's weight extends the latest word of its own length, not its prefix",
        EHRHART,
        "prefix, head = weights[len(word) - 1], heads[word[-1]]",
        "prefix, head = weights[len(word)], heads[word[-1]]",
        (
            TEST_EHRHART + "test_word_loop_matches_the_grouped_reference",
            TEST_EHRHART + "test_tensor_sum_matches_run_by_run_reference_and_point_sums",
        ),
    ),
    Mutant(
        "a word's weight multiplies its prefix by its first head, not its last",
        EHRHART,
        "prefix, head = weights[len(word) - 1], heads[word[-1]]",
        "prefix, head = weights[len(word) - 1], heads[word[0]]",
        (
            TEST_EHRHART + "test_word_loop_matches_the_grouped_reference",
            TEST_EHRHART + "test_tensor_sum_matches_run_by_run_reference_and_point_sums",
        ),
    ),
    Mutant(
        "an odd arrangement of distinct entries joins the orbit of its sorted tuple",
        CLASSIFY,
        "        rep[-2], rep[-1] = rep[-1], rep[-2]\n",
        "        pass\n",
        (
            TEST_CLASSIFY + "test_orbits_match_reference_on_prism_grid",
            TEST_CLASSIFY + "test_orbits_match_reference_on_multi_indices[3]",
            TEST_CLASSIFY + "test_orbits_match_reference_on_random_labels",
        ),
    ),
    Mutant(
        "a row that skips a pivot's step keeps the minor of the step before",
        LINALG,
        """            elif p != prev:
                new = [p * x // prev for x in new]
""",
        "",
        (
            TEST_LINALG + "test_echelon_matches_column_reference",
            TEST_LINALG + "test_echelon_matches_column_reference_on_late_pivots",
        ),
    ),
    Mutant(
        "an edge whose flip would be degenerate counts as flippable",
        TRI2D,
        "if _cross(pk, pl, points[i]) * _cross(pk, pl, points[j]) < 0:",
        "if _cross(pk, pl, points[i]) * _cross(pk, pl, points[j]) <= 0:",
        (TEST_TRI2D + "test_flip_targets_match_both_convexity_tests_along_walks",),
    ),
    Mutant(
        "a pull-back row reuses the previous word's prefix without matching it",
        TENSOR,
        "while word[: len(stack[-1][0])] != stack[-1][0]:",
        "while len(stack[-1][0]) > len(word):",
        (TEST_TENSOR + "test_pull_back_rows_match_coordinate_rows",),
    ),
    Mutant(
        "Bernoulli numbers lose the sign of their recurrence",
        ARITH,
        "return -acc / comb(m + 1, m)",
        "return acc / comb(m + 1, m)",
        (
            TEST_ARITH + "test_bernoulli_base_values",
            TEST_ARITH + "test_bernoulli_defining_recurrence",
            TEST_ARITH + "test_faulhaber_matches_brute_force",
        ),
    ),
)

# appended to the copy's conftest.py; shrinking a failure can take minutes
NO_SHRINK = """
from hypothesis import Phase, settings as _settings
_settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
_settings.load_profile("mutants")
"""

_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) (\S+)", re.MULTILINE)


def run_tests(tree: Path, ids) -> dict[str, str]:
    """Outcome (PASSED, FAILED or ERROR) per collected test id, from one pytest child in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", "--tb=no", *ids]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    outcomes = {test: outcome for outcome, test in _OUTCOME.findall(done.stdout)}
    if not outcomes:  # pytest stopped before running anything, e.g. on an unknown id
        print((done.stdout + done.stderr).strip()[-2000:])
    return outcomes


def main() -> int:
    problems = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src")
        shutil.copytree(ROOT / "tests", tree / "tests")
        shutil.copy(ROOT / "pyproject.toml", tree)
        with open(tree / "tests" / "conftest.py", "a") as conftest:
            conftest.write(NO_SHRINK)
        for m in MUTANTS:
            found = (tree / m.file).read_text().count(m.old)
            if found != 1:
                print(f"STALE     {m.name}: old text occurs {found} times in {m.file}")
                problems += 1
        ids = sorted({test for m in MUTANTS for test in m.tests})
        outcomes = run_tests(tree, ids)
        for test in ids:
            if outcomes.get(test) != "PASSED":
                print(f"BASELINE  {test}: {outcomes.get(test, 'not collected')} on the unchanged code")
                problems += 1
        if problems:
            return 1
        for m in MUTANTS:
            path = tree / m.file
            source = path.read_text()
            path.write_text(source.replace(m.old, m.new))
            start = time.perf_counter()
            outcomes = run_tests(tree, m.tests)
            path.write_text(source)
            survivors = [test for test in m.tests if outcomes.get(test) not in ("FAILED", "ERROR")]
            verdict = "SURVIVED" if survivors else "killed"
            print(f"{verdict:<9} {m.name} ({time.perf_counter() - start:.1f} s)", flush=True)
            for test in survivors:
                print(f"          {test}: {outcomes.get(test, 'not collected')}")
            problems += bool(survivors)
    print(f"{len(MUTANTS) - problems} of {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
