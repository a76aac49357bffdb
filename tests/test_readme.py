"""The code in README.md runs as written, against the package's pinned public names."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_snippet_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from circuitnull import" in snippet
    exec(compile(snippet, "README.md", "exec"), {})


def test_package_exports_exactly_its_public_names():
    import circuitnull

    assert circuitnull.__all__ == [
        "CapExceededError", "CircuitPartition", "EulerSystem", "Gf2Matrix", "InputFormatError",
        "LoopedGraph", "MultiPoly", "Multigraph", "PairDigraph", "Permutation", "ReductionReport",
        "SweepReport", "ToggleReport", "Transition", "check_euler_system", "cohn_lempel_matrix",
        "components", "compose_cycle_with_transpositions", "courcelle",
        "courcelle_from_partitions", "cyclic_word_key", "directed_euler_system", "euler_system",
        "even_extension", "format_assignment", "from_double_occurrence_words", "from_edge_list",
        "induced_assignment", "interlace_graph", "interlace_matrix",
        "interlacement_toggle_check", "kappa_transform", "looped_graph", "nullity",
        "orbit_count", "orbit_count_via_nullity", "orient", "parse_assignment",
        "parse_permutation", "partition_matrix", "permutation_to_digraph", "predicted_size",
        "q2_from_partitions", "q_from_partitions", "q_nullity", "q_two_variable",
        "random_regular_multigraph", "rank", "reversed_component",
        "sigma_transposition_factorization", "trace", "transition_matchings",
        "verify_extended_cle", "verify_permutation_reduction",
    ]
    namespace: dict = {}
    exec("from circuitnull import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == circuitnull.__all__
