"""Standalone property suites: lattice monotonicity, key partitions back
to their keys through the lattice join, keys of sets against the lattice
join, multiplier structure, genuine rows and their order against the
entry-by-entry rule, the reduction through the generated subgroup, the
isomorphism oracle against the backtracking reference, the oracle's
integer codes of neighbour colours against sorted colour tuples, the sweep's
enumeration of the sets whose key is not (almost) zero against every orbit
representative filtered by its key, the enumeration of connection sets
against the one by residues and pairs {x, -x}, the orbit filter against
the filter with one table per unit and against the Burnside count of the
orbits, the lazy CI scan against the scan that lists the whole unit
orbit first, and the isomorphism scan that drops a multiplier at its first
image outside T against the scan that compares full sorted images."""

import checks


def test_monotonicity_of_key_partitions():
    assert checks.check_monotonicity() > 0


def test_key_of_partition_round_trip():
    assert checks.check_key_round_trip() > 0


def test_key_matches_lattice_join():
    assert checks.check_key_against_lattice() > 0


def test_multiplier_bijectivity_and_class_action():
    assert checks.check_multiplier_action() > 0


def test_genuine_multiplier_matches_entrywise_rule():
    assert checks.check_genuine_rows_against_reference() > 0


def test_reduction_lemma_consistency():
    assert checks.check_reduction_consistency() > 0


def test_oracle_matches_backtracking():
    assert checks.check_oracle_against_backtracking() > 0


def test_signature_codes_rank_as_sorted_tuples():
    assert checks.check_signature_order() > 0


def test_key_enumeration_matches_reference():
    assert checks.check_key_enumeration() > 0


def test_orbit_filter_matches_reference_and_burnside_count():
    assert checks.check_orbit_filter() > 0


def test_ci_scan_matches_reference():
    assert checks.check_ci_scan_against_reference() > 0


def test_iso_scan_matches_reference():
    assert checks.check_iso_scan_against_reference() > 0
