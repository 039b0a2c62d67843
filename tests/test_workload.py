"""Workload layer tests: schema, loader, transactions, driver, metrics.

Includes the TPC-C consistency conditions the spec defines (clause 3.3.2):
after any run, ``W_YTD = Σ D_YTD`` per warehouse, ``D_NEXT_O_ID`` ordering,
and order/order-line counts must agree.
"""

from __future__ import annotations

import pytest

from repro.common import units
from repro.db.database import EngineKind
from repro.workload import tpcc_schema as ts
from repro.workload.driver import DriverConfig, TpccDriver
from repro.workload.metrics import Metrics, TxnOutcome, percentile
from repro.workload.mixes import (
    STANDARD_MIX,
    UPDATE_HEAVY_MIX,
    TxnType,
    validate_mix,
)
from repro.workload.tpcc_data import TpccLoader, last_name
from repro.workload.tpcc_schema import TpccScale, create_tpcc_tables
from tests.conftest import small_system_config

from repro.db.database import Database

TINY_SCALE = TpccScale(districts_per_warehouse=3, customers_per_district=6,
                       items=20, stock_per_warehouse=20,
                       initial_orders_per_district=4,
                       min_order_lines=2, max_order_lines=4)


def _tiny_db(kind=EngineKind.SIASV, warehouses=2, seed=42):
    db = Database.on_flash(kind, small_system_config(pool_pages=256))
    create_tpcc_tables(db)
    TpccLoader(db, TINY_SCALE, seed=seed).load(warehouses)
    return db


def _count(db, txn, table):
    return sum(1 for _ in db.scan(txn, table))


class TestScaleAndSchema:
    def test_default_scale_valid(self):
        TpccScale().validate()

    def test_stock_must_match_items(self):
        with pytest.raises(ValueError):
            TpccScale(items=10, stock_per_warehouse=20).validate()

    def test_all_nine_tables(self):
        assert len(ts.ALL_TABLES) == 9
        assert set(ts.SCHEMAS) == set(ts.INDEXES) == set(ts.ALL_TABLES)

    def test_last_name_syllables(self):
        assert last_name(0) == "BARBARBAR"
        assert last_name(371) == "PRICALLYOUGHT"
        assert last_name(999) == "EINGEINGEING"


class TestLoader:
    def test_row_counts(self):
        db = _tiny_db(warehouses=2)
        txn = db.begin()
        s = TINY_SCALE
        assert _count(db, txn, ts.WAREHOUSE) == 2
        assert _count(db, txn, ts.DISTRICT) == 2 * 3
        assert _count(db, txn, ts.CUSTOMER) == 2 * 3 * 6
        assert _count(db, txn, ts.ITEM) == 20
        assert _count(db, txn, ts.STOCK) == 2 * 20
        assert _count(db, txn, ts.ORDERS) == 2 * 3 * 4
        undelivered_per_district = 4 - 4 * 7 // 10
        assert _count(db, txn, ts.NEW_ORDER) == \
            2 * 3 * undelivered_per_district
        db.commit(txn)

    def test_deterministic_across_engines(self):
        a = _tiny_db(EngineKind.SIASV)
        b = _tiny_db(EngineKind.SI)
        ta, tb = a.begin(), b.begin()
        rows_a = sorted(row for _r, row in a.scan(ta, ts.CUSTOMER))
        rows_b = sorted(row for _r, row in b.scan(tb, ts.CUSTOMER))
        assert rows_a == rows_b

    def test_different_seed_different_data(self):
        a = _tiny_db(seed=1)
        b = _tiny_db(seed=2)
        ta, tb = a.begin(), b.begin()
        rows_a = sorted(row for _r, row in a.scan(ta, ts.CUSTOMER))
        rows_b = sorted(row for _r, row in b.scan(tb, ts.CUSTOMER))
        assert rows_a != rows_b

    def test_district_next_o_id_consistent(self):
        db = _tiny_db()
        txn = db.begin()
        for _ref, district in db.scan(txn, ts.DISTRICT):
            assert district[9] == TINY_SCALE.initial_orders_per_district + 1
        db.commit(txn)

    def test_needs_at_least_one_warehouse(self):
        db = Database.on_flash(EngineKind.SIASV, small_system_config())
        create_tpcc_tables(db)
        with pytest.raises(ValueError):
            TpccLoader(db, TINY_SCALE).load(0)


class TestMixes:
    def test_standard_mix_sums_to_one(self):
        validate_mix(STANDARD_MIX)
        validate_mix(UPDATE_HEAVY_MIX)

    def test_new_order_is_45_percent(self):
        assert STANDARD_MIX[TxnType.NEW_ORDER] == pytest.approx(0.45)

    def test_bad_mixes_rejected(self):
        with pytest.raises(ValueError):
            validate_mix({})
        with pytest.raises(ValueError):
            validate_mix({TxnType.PAYMENT: 0.5})


class TestMetrics:
    def _metrics(self):
        m = Metrics()
        m.start_usec = 0
        m.end_usec = units.MINUTE
        for i in range(10):
            m.record(TxnOutcome(TxnType.NEW_ORDER, committed=True,
                                response_usec=(i + 1) * 1000))
        m.record(TxnOutcome(TxnType.PAYMENT, committed=False,
                            response_usec=99, serialization_abort=True))
        return m

    def test_notpm(self):
        assert self._metrics().notpm() == pytest.approx(10.0)

    def test_commit_abort_counts(self):
        m = self._metrics()
        assert m.commits() == 10
        assert m.aborts() == 1
        assert m.serialization_aborts() == 1
        assert m.commits(TxnType.PAYMENT) == 0

    def test_percentile(self):
        assert percentile([], 0.5) == 0
        assert percentile([5], 0.99) == 5
        assert percentile(list(range(1, 101)), 0.90) == 90
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    def test_response_percentile(self):
        m = self._metrics()
        assert m.response_sec(0.90) == pytest.approx(0.009)

    def test_summary(self):
        s = self._metrics().summary()
        assert s.notpm == pytest.approx(10.0)
        assert s.commits == 10 and s.aborts == 1
        assert s.span_sec == pytest.approx(60.0)


class TestTransactions:
    @pytest.mark.parametrize("kind", [EngineKind.SIASV, EngineKind.SI],
                             ids=["sias-v", "si"])
    def test_all_profiles_commit(self, kind):
        db = _tiny_db(kind)
        config = DriverConfig(clients=1, mix={TxnType.NEW_ORDER: 0.2,
                                              TxnType.PAYMENT: 0.2,
                                              TxnType.ORDER_STATUS: 0.2,
                                              TxnType.DELIVERY: 0.2,
                                              TxnType.STOCK_LEVEL: 0.2})
        driver = TpccDriver(db, warehouses=2, scale=TINY_SCALE,
                            config=config)
        metrics = driver.run_transactions(60)
        assert metrics.commits() > 40
        types_seen = {o.type for o in metrics.outcomes if o.committed}
        assert types_seen == set(TxnType)

    def test_new_order_grows_orders(self):
        db = _tiny_db()
        txn = db.begin()
        orders_before = _count(db, txn, ts.ORDERS)
        db.commit(txn)
        config = DriverConfig(clients=1, mix={TxnType.NEW_ORDER: 1.0})
        driver = TpccDriver(db, warehouses=2, scale=TINY_SCALE,
                            config=config)
        metrics = driver.run_transactions(20)
        txn = db.begin()
        assert _count(db, txn, ts.ORDERS) == \
            orders_before + metrics.commits(TxnType.NEW_ORDER)
        db.commit(txn)

    def test_delivery_drains_new_orders(self):
        db = _tiny_db()
        config = DriverConfig(clients=1, mix={TxnType.DELIVERY: 1.0})
        driver = TpccDriver(db, warehouses=2, scale=TINY_SCALE,
                            config=config)
        driver.run_transactions(30)
        txn = db.begin()
        assert _count(db, txn, ts.NEW_ORDER) == 0
        # all orders got a carrier assigned
        for _ref, order in db.scan(txn, ts.ORDERS):
            assert order[5] != 0
        db.commit(txn)

    def test_payment_consistency_w_ytd(self):
        """TPC-C consistency condition 1: W_YTD == sum(D_YTD)."""
        db = _tiny_db()
        config = DriverConfig(clients=2, mix={TxnType.PAYMENT: 1.0})
        driver = TpccDriver(db, warehouses=2, scale=TINY_SCALE,
                            config=config)
        driver.run_transactions(80)
        txn = db.begin()
        w_ytd = {row[0]: row[7] for _r, row in db.scan(txn, ts.WAREHOUSE)}
        d_ytd: dict[int, float] = {}
        for _r, row in db.scan(txn, ts.DISTRICT):
            d_ytd[row[0]] = d_ytd.get(row[0], 0.0) + row[8]
        db.commit(txn)
        base_per_wh = 30_000.0 * TINY_SCALE.districts_per_warehouse
        for w_id, ytd in w_ytd.items():
            # payments added equally to W_YTD and its districts' D_YTD
            assert ytd - 300_000.0 == pytest.approx(
                d_ytd[w_id] - base_per_wh, abs=0.01)

    def test_new_order_consistency_d_next_o_id(self):
        """Condition 3: max(O_ID) == D_NEXT_O_ID - 1 per district."""
        db = _tiny_db()
        config = DriverConfig(clients=3, mix={TxnType.NEW_ORDER: 1.0})
        driver = TpccDriver(db, warehouses=2, scale=TINY_SCALE,
                            config=config)
        driver.run_transactions(60)
        txn = db.begin()
        max_o: dict[tuple[int, int], int] = {}
        for _r, order in db.scan(txn, ts.ORDERS):
            key = (order[0], order[1])
            max_o[key] = max(max_o.get(key, 0), order[2])
        for _r, district in db.scan(txn, ts.DISTRICT):
            key = (district[0], district[1])
            assert district[9] == max_o[key] + 1
        db.commit(txn)

    def test_order_line_counts_match_headers(self):
        """Condition 4-ish: every order has exactly O_OL_CNT lines."""
        db = _tiny_db()
        config = DriverConfig(clients=2, mix={TxnType.NEW_ORDER: 1.0})
        driver = TpccDriver(db, warehouses=2, scale=TINY_SCALE,
                            config=config)
        driver.run_transactions(40)
        txn = db.begin()
        lines: dict[tuple, int] = {}
        for _r, ol in db.scan(txn, ts.ORDER_LINE):
            key = (ol[0], ol[1], ol[2])
            lines[key] = lines.get(key, 0) + 1
        for _r, order in db.scan(txn, ts.ORDERS):
            key = (order[0], order[1], order[2])
            assert lines[key] == order[6]
        db.commit(txn)


class TestDriver:
    def test_think_time_rate_limits(self):
        db = _tiny_db()
        paced = DriverConfig(clients=2, think_time_usec=50 * units.MSEC,
                             mix={TxnType.PAYMENT: 1.0})
        driver = TpccDriver(db, warehouses=2, scale=TINY_SCALE,
                            config=paced)
        metrics = driver.run_for(2 * units.SEC)
        # 2 clients, >=50ms per txn cycle, 2s window: at most ~80 txns
        assert len(metrics.outcomes) <= 85

    def test_zero_think_time_saturates(self):
        db = _tiny_db()
        config = DriverConfig(clients=2, mix={TxnType.PAYMENT: 1.0})
        driver = TpccDriver(db, warehouses=2, scale=TINY_SCALE,
                            config=config)
        metrics = driver.run_for(units.SEC)
        assert len(metrics.outcomes) > 100

    def test_maintenance_runs_on_interval(self):
        db = _tiny_db()
        config = DriverConfig(clients=2,
                              maintenance_interval_usec=units.SEC // 2,
                              mix={TxnType.PAYMENT: 1.0})
        driver = TpccDriver(db, warehouses=2, scale=TINY_SCALE,
                            config=config)
        driver.run_for(2 * units.SEC)
        assert driver.maintenance_runs >= 2

    def test_batched_runs_keep_one_measured_window(self):
        db = _tiny_db()
        driver = TpccDriver(db, warehouses=2, scale=TINY_SCALE,
                            config=DriverConfig(clients=2))
        first_call = db.clock.now
        driver.run_transactions(40)
        metrics = driver.run_transactions(80)
        assert len(metrics.outcomes) >= 80
        assert metrics.span_usec == db.clock.now - first_call
        # the rate covers every outcome, not just the last batch's
        assert metrics.notpm() == pytest.approx(
            metrics.commits(TxnType.NEW_ORDER)
            / ((db.clock.now - first_call) / units.MINUTE))

    def test_outcomes_have_response_times(self):
        db = _tiny_db()
        driver = TpccDriver(db, warehouses=2, scale=TINY_SCALE,
                            config=DriverConfig(clients=2))
        metrics = driver.run_transactions(30)
        assert all(o.response_usec > 0 for o in metrics.outcomes)

    def test_run_is_deterministic(self):
        def run_once():
            db = _tiny_db()
            driver = TpccDriver(db, warehouses=2, scale=TINY_SCALE,
                                config=DriverConfig(clients=3), seed=7)
            m = driver.run_transactions(50)
            return [(o.type, o.committed, o.response_usec)
                    for o in m.outcomes]

        assert run_once() == run_once()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DriverConfig(clients=0).validate()
        with pytest.raises(ValueError):
            DriverConfig(think_time_usec=-1).validate()
