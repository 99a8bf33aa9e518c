"""Tests for repro.privacy.budget: sequential composition accounting."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy import BudgetExceededError, PrivacyBudgetLedger, budget


class TestLedger:
    def test_fresh_principal_has_full_budget(self):
        ledger = PrivacyBudgetLedger(capacity=2.0)
        assert ledger.spent("w1") == 0.0
        assert ledger.remaining("w1") == 2.0

    def test_spend_accumulates(self):
        ledger = PrivacyBudgetLedger(capacity=2.0)
        assert ledger.spend("w1", 0.5) == 0.5
        assert ledger.spend("w1", 0.7) == pytest.approx(1.2)
        assert ledger.remaining("w1") == pytest.approx(0.8)

    def test_principals_are_independent(self):
        ledger = PrivacyBudgetLedger(capacity=1.0)
        ledger.spend("w1", 0.9)
        assert ledger.remaining("w2") == 1.0
        ledger.spend("w2", 0.9)

    def test_cap_enforced(self):
        ledger = PrivacyBudgetLedger(capacity=1.0)
        ledger.spend("w1", 0.8)
        with pytest.raises(BudgetExceededError):
            ledger.spend("w1", 0.3)
        # a failed spend records nothing
        assert ledger.spent("w1") == pytest.approx(0.8)

    def test_exact_cap_allowed(self):
        ledger = PrivacyBudgetLedger(capacity=1.0)
        ledger.spend("w1", 0.5)
        ledger.spend("w1", 0.5)
        assert ledger.remaining("w1") == pytest.approx(0.0)

    def test_can_spend(self):
        ledger = PrivacyBudgetLedger(capacity=1.0)
        ledger.spend("w1", 0.6)
        assert ledger.can_spend("w1", 0.4)
        assert not ledger.can_spend("w1", 0.5)

    def test_history_and_total(self):
        ledger = PrivacyBudgetLedger(capacity=5.0)
        ledger.spend("a", 1.0)
        ledger.spend("b", 2.0)
        assert ledger.history == [("a", 1.0), ("b", 2.0)]
        assert ledger.total_spent() == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyBudgetLedger(capacity=0.0)
        ledger = PrivacyBudgetLedger(capacity=1.0)
        with pytest.raises(ValueError):
            ledger.spend("w", 0.0)
        with pytest.raises(ValueError):
            ledger.can_spend("w", -0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_validation_rejects_non_finite_epsilon(self, bad):
        ledger = PrivacyBudgetLedger(capacity=1.0)
        with pytest.raises(ValueError):
            ledger.spend("w", bad)
        with pytest.raises(ValueError):
            ledger.can_spend("w", bad)
        with pytest.raises(ValueError):
            ledger.spend_batch(["w", "v"], bad)
        assert ledger.total_spent() == 0.0 and ledger.history == []

    def test_validation_nan_capacity_rejected_inf_means_no_cap(self):
        # a NaN cap would make every cap check False, i.e. no cap at all
        with pytest.raises(ValueError):
            PrivacyBudgetLedger(capacity=float("nan"))
        unbounded = PrivacyBudgetLedger(capacity=float("inf"))
        unbounded.spend_batch(["w"] * 3, 1e6)
        assert unbounded.spent("w") == 3e6


class TestLedgerRoundTrip:
    def test_to_dict_from_dict_preserves_everything(self):
        ledger = PrivacyBudgetLedger(capacity=2.0)
        ledger.spend("w1", 0.5)
        ledger.spend(7, 0.3)
        ledger.spend("w1", 0.25)
        restored = PrivacyBudgetLedger.from_dict(ledger.to_dict())
        assert restored.capacity == ledger.capacity
        assert restored.spent("w1") == pytest.approx(0.75)
        assert restored.spent(7) == pytest.approx(0.3)
        assert restored.history == ledger.history
        assert restored.min_remaining() == pytest.approx(ledger.min_remaining())

    def test_json_round_trip_keeps_integer_principals(self):
        import json

        ledger = PrivacyBudgetLedger(capacity=1.0)
        ledger.spend(42, 0.5)
        restored = PrivacyBudgetLedger.from_dict(
            json.loads(json.dumps(ledger.to_dict()))
        )
        # pair-list encoding: 42 stays an int (a dict key would become "42")
        assert restored.spent(42) == pytest.approx(0.5)
        assert restored.spent("42") == 0.0

    def test_restored_ledger_keeps_enforcing_the_cap(self):
        ledger = PrivacyBudgetLedger(capacity=1.0)
        ledger.spend("w", 0.8)
        restored = PrivacyBudgetLedger.from_dict(ledger.to_dict())
        with pytest.raises(BudgetExceededError):
            restored.spend("w", 0.3)
        restored.spend("w", 0.2)

    def test_rejects_malformed_payloads(self):
        ledger = PrivacyBudgetLedger(capacity=1.0)
        ledger.spend("w", 0.4)
        good = ledger.to_dict()
        with pytest.raises(ValueError, match="missing"):
            PrivacyBudgetLedger.from_dict({"capacity": 1.0})
        with pytest.raises(ValueError, match="outside"):
            PrivacyBudgetLedger.from_dict(
                {**good, "spent": [["w", 5.0]]}
            )
        with pytest.raises(ValueError, match="history"):
            PrivacyBudgetLedger.from_dict({**good, "history": []})


class TestWithMechanism:
    def test_repeated_reports_respect_cap(self, example1_tree):
        """A worker re-reporting its leaf spends its budget down and is cut
        off exactly when composition would exceed the cap."""
        from repro.privacy import TreeMechanism

        per_report = 0.3
        ledger = PrivacyBudgetLedger(capacity=1.0)
        mech = TreeMechanism(example1_tree, epsilon=per_report, seed=0)
        reports = 0
        while ledger.can_spend("worker-7", per_report):
            ledger.spend("worker-7", per_report)
            mech.obfuscate(example1_tree.path_of(0))
            reports += 1
        assert reports == 3  # floor(1.0 / 0.3)
        assert ledger.remaining("worker-7") == pytest.approx(0.1)


def _charge(ledger, cohort, epsilon):
    """spend_batch's outcome: ``None``, or the refusal's message."""
    try:
        ledger.spend_batch(cohort, epsilon)
    except BudgetExceededError as err:
        return str(err)
    return None


def _state(ledger):
    return ledger.to_dict(), sorted(ledger._rows.items()), ledger.principals


class TestChargeForms:
    """A small cohort's plain-Python charge equals the numpy form: same
    balances (bit for bit), history, refusal and message, and a refused
    cohort's new principals unwound."""

    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.sampled_from([1.0, 2.0, 2, math.inf]),
        epsilon=st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0]),
        prior=st.lists(st.integers(0, 7), max_size=12),
        cohort=st.lists(st.integers(0, 11), max_size=budget.CHARGE_PLAIN_MAX_ROWS),
    )
    def test_plain_matches_numpy(self, capacity, epsilon, prior, cohort):
        ledger = PrivacyBudgetLedger(capacity)
        for principal in prior:
            if ledger.can_spend(principal, epsilon):
                ledger.spend(principal, epsilon)
        plain = PrivacyBudgetLedger.from_dict(ledger.to_dict())
        array = PrivacyBudgetLedger.from_dict(ledger.to_dict())
        got = _charge(plain, cohort, epsilon)
        with mock.patch.object(budget, "CHARGE_PLAIN_MAX_ROWS", -1):
            want = _charge(array, cohort, epsilon)
        assert got == want
        assert _state(plain) == _state(array)
        if got is not None:
            assert _state(plain) == _state(ledger)

    @pytest.mark.parametrize("cutoff", [-1, 10**6], ids=["numpy", "plain"])
    def test_refusal_names_the_lowest_over_cap_row(self, cutoff):
        ledger = PrivacyBudgetLedger(capacity=1.0)
        for principal in ("a", "b", "c"):
            ledger.spend(principal, 0.7)
        with mock.patch.object(budget, "CHARGE_PLAIN_MAX_ROWS", cutoff):
            with pytest.raises(BudgetExceededError) as err:
                ledger.spend_batch(["new", "c", "b", "new", "new"], 0.5)
        assert "principal 'b' has 0.300" in str(err.value)
        assert "batch of 5 rejected" in str(err.value)
        assert ledger.principals == 3 and ledger.spent("new") == 0.0
        with mock.patch.object(budget, "CHARGE_PLAIN_MAX_ROWS", cutoff):
            with pytest.raises(BudgetExceededError, match="'new' has 1.000.*3 x"):
                ledger.spend_batch(["new", "new", "new"], 0.5)
        assert ledger.principals == 3

    @pytest.mark.parametrize("cutoff", [-1, 10**6], ids=["numpy", "plain"])
    def test_check_reads_only_the_cohort(self, cutoff):
        """A principal outside the cohort never blocks it: after the cap
        drops below earlier spends, a fresh cohort still fits."""
        ledger = PrivacyBudgetLedger(capacity=1.0)
        ledger.spend_batch(range(100), 1.0)
        ledger.capacity = 0.5
        with mock.patch.object(budget, "CHARGE_PLAIN_MAX_ROWS", cutoff):
            ledger.spend_batch(["fresh", "fresh"], 0.25)
        assert ledger.spent("fresh") == 0.5
        assert ledger.principals == 101
