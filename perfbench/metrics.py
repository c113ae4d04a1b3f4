"""What each per-layer metric should move.

BENCHMARK.json holds every metric's name, unit, direction and bound; this
map adds what it cannot hold: the end-to-end metric and workload that a
change to the layer should move, so that the change can state its claim
before it is measured.  test_perfbench.py checks that its keys are the
per-layer names of BENCHMARK.json.
"""

SHOULD_MOVE = {
    "linalg.matmul_calls": "wall_s and peak_rss_mb on hkg_verify",
    "linalg.matmul_s": "wall_s on hkg_verify",
    "linalg.matmul_temp_mb": "peak_rss_mb on hkg_verify",
    "linalg.rank_calls": "wall_s on tube_batch",
    "linalg.rank_s": "wall_s on tube_batch",
    "linalg.rref_calls": "wall_s on hkg_verify",
    "linalg.rref_s": "wall_s on hkg_verify",
    "linalg.first_call_s": "wall_s on large_field; about 0 at m=8",
    "gf.mul_calls": "wall_s on orbit_analyze and large_field",
    "ratlaurent.poly_roots_calls": "wall_s on orbit_analyze",
    "ratlaurent.laurent_at_calls": "wall_s on orbit_analyze",
    "ratlaurent.laurent_at_s": "wall_s on orbit_analyze",
    "ratlaurent.trace_calls": "wall_s on orbit_analyze",
    "artin_schreier.precheck_s": "wall_s on orbit_analyze",
    "artin_schreier.symmetrize_s": "wall_s on orbit_analyze",
    "artin_schreier.as_reduce_calls": "wall_s on orbit_analyze",
    "ramification.analyze_s": "wall_s on orbit_analyze",
    "decomp.closed_form_s": "nothing; flat everywhere",
    "repbuilder.build_s": "wall_s on hkg_verify",
    "modulezoo.validate_calls": "wall_s on hkg_verify",
    "modulezoo.validate_s": "wall_s on hkg_verify",
    "oracle.decompose_kG_s": "wall_s on hkg_verify",
    "oracle.decompose_kH_s": "wall_s on tube_batch",
    "oracle.scan_rank_calls": "wall_s on tube_batch and large_field",
    "oracle.scan_hit_ratio": "wall_s on tube_batch and large_field",
    "oracle.hom_labels_calls": "wall_s on hkg_verify",
    "cli.batch_busy_frac": "wall_s on tube_batch",
    "trace_overhead_frac": "nothing; the cost of the traced run itself",
    # self time of each layer: span time minus the time of its child spans
    # (repbuilder.build_s above is the repbuilder layer's self time)
    "linalg.self_s": "wall_s on hkg_verify and large_field",
    "ratlaurent.self_s": "wall_s on orbit_analyze",
    "artin_schreier.self_s": "wall_s on orbit_analyze",
    "ramification.self_s": "wall_s on orbit_analyze",
    "decomp.self_s": "nothing; flat everywhere",
    "modulezoo.self_s": "wall_s on hkg_verify",
    "oracle.self_s": "wall_s on tube_batch and large_field",
    "families.self_s": "nothing; flat everywhere",
    "cli.self_s": "nothing; flat everywhere",
}
