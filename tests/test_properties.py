"""Standalone property suites: keys of sets against the lattice join,
genuine rows and their order against the entry-by-entry rule, the
isomorphism oracle against the backtracking reference, the oracle's
integer codes of neighbour colours against sorted colour tuples, the
sweep's enumeration of the sets whose key is not (almost) zero against
every orbit representative filtered by its key, also at the moduli where
two primes are scanned, the enumeration of connection sets against the
one by residues and pairs {x, -x}, the orbit filter against the filter
with one table per unit and against the Burnside count of the orbits, the
lazy CI scan against the scan that lists the whole unit orbit first, and
the isomorphism scan that drops a multiplier at its first image outside T
against the scan that compares full sorted images.  Lattice monotonicity,
the round trip of key partitions, the multiplier action and the reduction
through the generated subgroup run once, in test_acceptance's
criterion 9."""

import checks


def test_key_matches_lattice_join():
    assert checks.check_key_against_lattice() > 0


def test_genuine_multiplier_matches_entrywise_rule():
    assert checks.check_genuine_rows_against_reference() > 0


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
