"""Workload tests: kernels, traces, the calibrated catalog, specialization."""

import pytest

from repro.analysis import chain_stats, cmr_car
from repro.arch import BASELINE_CONFIG
from repro.errors import WorkloadError
from repro.experiments import paperdata
from repro.workloads import (
    BENCHMARKS,
    benchmark_names,
    chain_kernel,
    copy_kernel,
    get_benchmark,
    inplace_stencil_kernel,
    reduction_kernel,
    specialize_ambiguous,
    streaming_kernel,
    table_update_kernel,
    trace_factory,
)
from repro.workloads.kernels import table_lookup_kernel
from repro.workloads.traces import AddressTrace


class TestKernels:
    def test_streaming_is_chain_free(self):
        ddg = streaming_kernel(n_loads=3, n_stores=2, taps=2)
        assert chain_stats(ddg).biggest_chain == 0

    def test_streaming_tap_count(self):
        ddg = streaming_kernel(n_loads=2, taps=3)
        assert len(ddg.loads()) == 6

    def test_copy_kernel_shape(self):
        ddg = copy_kernel(width=2)
        assert len(ddg.loads()) == 1 and len(ddg.stores()) == 1

    def test_reduction_has_recurrence(self):
        ddg = reduction_kernel()
        acc = next(v for v in ddg if v.name == "acc")
        assert any(e.src == acc.iid and e.distance == 1
                   for e in ddg.preds(acc.iid))

    def test_table_lookup_is_loads_only(self):
        ddg = table_lookup_kernel()
        assert not ddg.stores()
        assert chain_stats(ddg).biggest_chain == 0

    def test_stencil_chain_size(self):
        ddg = inplace_stencil_kernel(taps=3)
        assert chain_stats(ddg).biggest_chain == 4  # 3 loads + 1 store

    def test_table_update_chains_load_and_store(self):
        ddg = table_update_kernel()
        assert chain_stats(ddg).biggest_chain == 2

    def test_chain_kernel_glues_ladders(self):
        ddg = chain_kernel(ladders=(4, 3, 2))
        assert chain_stats(ddg).biggest_chain == 9

    def test_chain_kernel_ladder_sum_checked(self):
        with pytest.raises(WorkloadError):
            chain_kernel(ladders=())

    def test_chain_kernel_specializes_to_biggest_ladder(self):
        ddg = chain_kernel(ladders=(6, 3))
        aggressive = specialize_ambiguous(ddg)
        assert chain_stats(aggressive, with_mem_deps=True).biggest_chain == 6

    def test_rotating_ladder_spans_two_homes(self):
        ddg = chain_kernel(ladders=(1, 4), rotating=(1,), lane_stride=16)
        rotated = [v for v in ddg.memory_instructions()
                   if v.mem.stride == 8]
        assert len(rotated) == 4


class TestTraces:
    def test_deterministic(self, stream_loop):
        t1 = trace_factory(32, seed=9)(stream_loop)
        t2 = trace_factory(32, seed=9)(stream_loop)
        load = stream_loop.loads()[0]
        assert all(
            t1.address(load.iid, i) == t2.address(load.iid, i)
            for i in range(32)
        )

    def test_affine_addresses_follow_stride(self, stream_loop):
        trace = trace_factory(8, seed=1)(stream_loop)
        load = stream_loop.loads()[0]
        addrs = [trace.address(load.iid, i) for i in range(8)]
        deltas = {b - a for a, b in zip(addrs, addrs[1:])}
        assert deltas == {load.mem.stride}

    def test_spaces_do_not_overlap(self, stream_loop):
        trace = trace_factory(4, seed=1)(stream_loop)
        bases = {trace.base(s) for s in ("A", "B", "C")}
        assert len(bases) == 3
        assert max(bases) - min(bases) >= 1 << 22

    def test_bases_cluster_aligned(self, stream_loop):
        trace = trace_factory(4, seed=1)(stream_loop)
        lane = BASELINE_CONFIG.num_clusters * BASELINE_CONFIG.interleave_bytes
        for space in ("A", "B", "C"):
            assert trace.base(space) % lane == 0

    def test_indirect_stays_in_window_and_aligned(self):
        from repro.alias import AccessPattern, MemRef
        from repro.ir import DdgBuilder

        b = DdgBuilder()
        b.load("x", mem=MemRef("T", width=4, pattern=AccessPattern.INDIRECT,
                               spread=256), name="lut")
        ddg = b.build()
        trace = trace_factory(200, seed=3)(ddg)
        load = ddg.loads()[0]
        base = trace.base("T")
        for i in range(200):
            addr = trace.address(load.iid, i)
            assert base <= addr < base + 256
            assert addr % 4 == 0

    def test_non_memory_instruction_raises(self, stream_loop):
        trace = trace_factory(4, seed=1)(stream_loop)
        alu = next(v for v in stream_loop if not v.is_memory)
        with pytest.raises(WorkloadError):
            trace.address(alu.iid, 0)

    def test_explicit_bases(self, stream_loop):
        trace = AddressTrace(stream_loop, 4, base_of={"A": 0, "B": 64, "C": 128})
        assert trace.base("A") == 0


def _mixed_refs_loop():
    """Affine refs (positive, zero and negative stride) and indirect refs
    (two widths, salted) over three spaces; two equal store refs; loads
    that read what earlier iterations stored."""
    from repro.alias import AccessPattern, MemRef
    from repro.ir import DdgBuilder

    b = DdgBuilder()
    b.load("a", mem=MemRef("A", offset=8, stride=4), name="up")
    b.load("z", mem=MemRef("A", offset=64), name="invariant")
    b.load("d", mem=MemRef("B", offset=4096, stride=-8, width=8),
           name="down")
    b.load("i", mem=MemRef("T", width=4, pattern=AccessPattern.INDIRECT,
                           spread=256, salt=3), name="lut")
    b.load("w", mem=MemRef("T", offset=16, width=8,
                           pattern=AccessPattern.INDIRECT, spread=1024),
           name="wide")
    b.load("p", mem=MemRef("A", offset=508, stride=4), name="prev")
    b.ialu("s", "a", "i", "p", name="sum")
    b.store("s", mem=MemRef("A", offset=512, stride=4), name="st")
    b.store("s", mem=MemRef("A", offset=512, stride=4), name="st2")
    b.store("s", mem=MemRef("T", width=4, pattern=AccessPattern.INDIRECT,
                            spread=256, salt=5), name="scatter")
    return b.build()


class TestAddressTables:
    """``AddressTrace.addresses`` against the scalar ``address``."""

    @staticmethod
    def scalar(trace, iid, n):
        return [trace.address(iid, i) for i in range(n)]

    @pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
    def test_every_ref_matches_the_scalar_stream(self, seed):
        ddg = _mixed_refs_loop()
        trace = AddressTrace(ddg, 96, seed=seed)
        for op in ddg.memory_instructions():
            table = trace.addresses(op.iid, 96)
            assert list(table) == self.scalar(trace, op.iid, 96), op.name

    def test_explicit_base_of(self):
        ddg = _mixed_refs_loop()
        trace = AddressTrace(ddg, 40, seed=5,
                             base_of={"A": 1 << 20, "T": 12345})
        assert trace.base("A") == 1 << 20
        for op in ddg.memory_instructions():
            assert list(trace.addresses(op.iid, 40)) == \
                self.scalar(trace, op.iid, 40)

    def test_cut_to_the_profile_length_and_grown_again(self):
        from repro.api.spec import PROFILE_ITERATIONS

        ddg = _mixed_refs_loop()
        trace = AddressTrace(ddg, PROFILE_ITERATIONS + 44, seed=11)
        for op in ddg.memory_instructions():
            short = trace.addresses(op.iid, PROFILE_ITERATIONS)
            assert list(short) == self.scalar(trace, op.iid,
                                              PROFILE_ITERATIONS)
            full = trace.addresses(op.iid, trace.num_iterations)
            assert list(full) == self.scalar(trace, op.iid,
                                             trace.num_iterations)
            assert trace.addresses(op.iid, 3) == full[:3]
            assert trace.addresses(op.iid, 0) == ()

    def test_equal_refs_share_one_table(self):
        ddg = _mixed_refs_loop()
        trace = AddressTrace(ddg, 16, seed=1)
        st, st2, _ = ddg.stores()
        assert trace.addresses(st.iid, 16) is trace.addresses(st2.iid, 16)

    def test_non_memory_instruction_raises(self, stream_loop):
        trace = trace_factory(4, seed=1)(stream_loop)
        alu = next(v for v in stream_loop if not v.is_memory)
        with pytest.raises(WorkloadError):
            trace.addresses(alu.iid, 4)

    def test_doubles_keep_their_own_address(self):
        from repro.workloads.traces import address_table

        class Shifted(AddressTrace):
            def address(self, iid, iteration):
                return super().address(iid, iteration) + 1

        ddg = _mixed_refs_loop()
        double = Shifted(ddg, 8, seed=2)
        plain = AddressTrace(ddg, 8, seed=2)
        for op in ddg.memory_instructions():
            assert list(address_table(double, op.iid, 8)) == [
                a + 1 for a in plain.addresses(op.iid, 8)
            ]
            assert address_table(plain, op.iid, 8) is \
                plain.addresses(op.iid, 8)

    def test_profile_matches_the_scalar_histogram(self):
        from repro.alias import profile_preferred_clusters

        ddg = _mixed_refs_loop()
        trace = AddressTrace(ddg, 300, seed=4)
        profiles = profile_preferred_clusters(ddg, trace, BASELINE_CONFIG,
                                              max_iterations=256)
        for op in ddg.memory_instructions():
            counts = [0] * BASELINE_CONFIG.num_clusters
            for i in range(256):
                counts[BASELINE_CONFIG.home_cluster(
                    trace.address(op.iid, i))] += 1
            assert profiles[op.iid].counts == tuple(counts)

    def test_checker_oracle_matches_the_scalar_walk(self):
        from repro.sim.coherence import CoherenceChecker

        ddg = _mixed_refs_loop()
        trace = AddressTrace(ddg, 64, seed=9)
        ops = sorted(ddg.memory_instructions(), key=lambda v: (v.seq, v.iid))
        last, expected = {}, {}
        for i in range(64):
            for op in ops:
                addr = trace.address(op.iid, i)
                if op.is_store:
                    last[addr] = (i, op.seq)
                else:
                    expected[(op.iid, i)] = last.get(addr)
        checker = CoherenceChecker(ddg, trace, 64)
        assert any(v is not None for v in expected.values())
        for (iid, i), version in expected.items():
            assert checker.expected(iid, i) == version
        assert checker.expected(ops[0].iid, 64) is None
        load = next(iter(expected))[0]
        assert checker.expected(load, 64) is None
        assert checker.expected(load, -1) is None

    @pytest.mark.parametrize("model", ["snooping", "dls", "directory"])
    def test_no_hot_path_calls_the_scalar_address(self, monkeypatch,
                                                  model):
        """Profiling, the checker's oracle and the flat stepper all read
        the tables; only the per-cycle reference calls ``address``."""
        from repro.api.artifacts import MemoryArtifactStore
        from repro.api.core import execute_spec
        from repro.api.spec import RunSpec

        spec = RunSpec(benchmark="gsmdec", variant="ddgt/prefclus",
                       scale=0.1, model=model)
        expected = execute_spec(spec, artifacts=MemoryArtifactStore())

        def scalar_address(self, iid, iteration):
            raise AssertionError("AddressTrace.address on a hot path")

        monkeypatch.setattr(AddressTrace, "address", scalar_address)
        record = execute_spec(spec, artifacts=MemoryArtifactStore())
        assert record.to_dict() == expected.to_dict()


class TestCatalog:
    def test_all_table1_rows_present(self):
        assert len(BENCHMARKS) == 14
        everything = benchmark_names(evaluated_only=False)
        assert set(BENCHMARKS) <= set(everything)
        # Beyond Table 1, the full listing carries one canonical synthetic
        # scenario per generator family (see repro.scenarios).
        extras = set(everything) - set(BENCHMARKS)
        assert extras and all(n.startswith("scn-") for n in extras)
        assert len(benchmark_names()) == 13  # epicenc not in the figures

    @pytest.mark.parametrize("name", [n for n in BENCHMARKS if n != "epicenc"])
    def test_calibration_matches_table3(self, name):
        bench = get_benchmark(name)
        paper_cmr, paper_car = paperdata.TABLE3[name]
        cmr, car = cmr_car(bench.chain_table())
        assert cmr == pytest.approx(paper_cmr, abs=0.02)
        assert car == pytest.approx(paper_car, abs=0.02)

    def test_interleave_factors_follow_table1(self):
        two_byte = {"g721dec", "g721enc", "gsmdec", "gsmenc",
                    "pegwitdec", "pegwitenc"}
        for name in BENCHMARKS:
            bench = get_benchmark(name)
            expected = 2 if name in two_byte else 4
            assert bench.interleave_bytes == expected

    def test_epicdec_has_the_76_op_chain(self):
        bench = get_benchmark("epicdec")
        chain_loop = bench.loops[0]
        assert chain_stats(chain_loop.ddg).biggest_chain == 76

    def test_unknown_benchmark(self):
        with pytest.raises(WorkloadError):
            get_benchmark("doom")

    def test_machine_applies_interleave(self):
        bench = get_benchmark("gsmdec")
        assert bench.machine(BASELINE_CONFIG).interleave_bytes == 2

    def test_profile_and_execute_seeds_differ(self):
        for name in BENCHMARKS:
            bench = get_benchmark(name)
            assert bench.profile_seed != bench.execute_seed


class TestSpecialization:
    @pytest.mark.parametrize("name", ["epicdec", "pgpdec", "rasta"])
    def test_table5_new_ratios(self, name):
        bench = get_benchmark(name)
        _, _, paper_new_cmr, paper_new_car = paperdata.TABLE5[name]
        new_table = []
        for spec in bench.loops:
            aggressive = specialize_ambiguous(spec.ddg)
            new_table.append(
                (chain_stats(aggressive, with_mem_deps=True), spec.iterations)
            )
        new_cmr, new_car = cmr_car(new_table)
        assert new_cmr == pytest.approx(paper_new_cmr, abs=0.05)
        assert new_car == pytest.approx(paper_new_car, abs=0.05)

    def test_specialization_clears_ambiguity(self):
        bench = get_benchmark("epicdec")
        aggressive = specialize_ambiguous(bench.loops[0].ddg)
        assert all(
            not v.mem.ambiguous for v in aggressive.memory_instructions()
        )

    def test_original_untouched(self):
        bench = get_benchmark("epicdec")
        ddg = bench.loops[0].ddg
        before = len(ddg.edges())
        specialize_ambiguous(ddg)
        assert len(ddg.edges()) == before
