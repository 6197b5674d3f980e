"""Dashboard subsystem tests: determinism, exports, and store tolerance.

The contracts under test are the dashboard's advertisements: rendering
is a pure function of the store (two builds from the same store are
byte-identical), an empty store renders valid "no data" pages and exits
0, ``campaign.json`` round-trips every fitted curve ``report --all
--refit`` prints, and the presentation layer never simulates.  The
store-tolerance satellites ride along: a truncated record warns and
re-measures instead of crashing a resumed campaign, the campaign
``--resume`` skip-set comes from one store walk, and ``--prune-stale
--dry-run`` deletes nothing while sizing what a real prune would
reclaim.
"""

from __future__ import annotations

import json
from html.parser import HTMLParser
from xml.etree import ElementTree

import pytest

from conftest import assert_rejected
from repro.analysis.growth import classify_growth, refit_from_store
from repro.analysis.tables import format_table, render_rows, rows_to_csv
from repro.cli import main
from repro.dashboard import build_dashboard
from repro.dashboard.assemble import assemble, lpt_schedule
from repro.experiments import ALL_SPECS, RunProfile, get_spec
from repro.runner import RunStore, execute_campaign, execute_plan

QUICK = RunProfile(preset="quick")

PAGE_COUNT = len(ALL_SPECS)  # one page per experiment


def _populate(store: RunStore, exp_ids=("E8",), profile=QUICK) -> None:
    execute_campaign([get_spec(e) for e in exp_ids], profile, store=store)


def _read_all(out_dir) -> dict:
    return {
        path.name: path.read_bytes()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    }


class _WellFormed(HTMLParser):
    VOID = {"meta", "link", "br", "img", "hr", "input"}

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack, self.errors = [], []

    def handle_starttag(self, tag, attrs):
        if tag not in self.VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if self.stack and self.stack[-1] == tag:
            self.stack.pop()
        else:
            self.errors.append(tag)


def _assert_valid_html(text: str) -> None:
    checker = _WellFormed()
    checker.feed(text)
    assert not checker.errors and not checker.stack


class TestDashboardDeterminism:
    def test_two_builds_from_same_store_are_byte_identical(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        _populate(store, ("E8", "E11"))
        build_dashboard(store, QUICK, tmp_path / "a", timeline_jobs=2)
        build_dashboard(store, QUICK, tmp_path / "b", timeline_jobs=2)
        first, second = _read_all(tmp_path / "a"), _read_all(tmp_path / "b")
        assert list(first) == list(second)
        for name in first:
            assert first[name] == second[name], name

    def test_empty_store_renders_no_data_pages_exit_0(self, tmp_path, capsys):
        out = tmp_path / "site"
        code = main(
            [
                "dashboard",
                "--store",
                str(tmp_path / "empty-runs"),
                "--out",
                str(out),
                "--bench-dir",
                str(tmp_path / "no-bench"),
            ]
        )
        assert code == 0
        pages = sorted(p.name for p in out.glob("E*.html"))
        assert len(pages) == PAGE_COUNT
        index = (out / "index.html").read_text(encoding="utf-8")
        _assert_valid_html(index)
        assert "no records" in index
        for page in pages:
            text = (out / page).read_text(encoding="utf-8")
            _assert_valid_html(text)
            assert "no stored record" in text
        payload = json.loads((out / "campaign.json").read_text())
        assert payload["totals"]["stored_cells"] == 0
        assert not list(out.glob("*.cells.csv"))

    def test_pages_are_wellformed_with_valid_svg(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        _populate(store, ("E8",))
        written = build_dashboard(store, QUICK, tmp_path / "site")
        e8 = (tmp_path / "site" / "E8.html").read_text(encoding="utf-8")
        _assert_valid_html(e8)
        assert "<svg" in e8  # growth curves + wall-clock bars
        for path in written:
            if path.suffix == ".html":
                text = path.read_text(encoding="utf-8")
                start = 0
                while (start := text.find("<svg", start)) != -1:
                    end = text.index("</svg>", start) + len("</svg>")
                    ElementTree.fromstring(text[start:end])
                    start = end

    def test_rerender_drops_orphans_keeps_unrelated_files(self, tmp_path):
        """In-place re-render reflects the store; foreign files survive."""
        store = RunStore(tmp_path / "runs")
        _populate(store, ("E8",))
        out = tmp_path / "site"
        build_dashboard(store, QUICK, out)
        assert (out / "E8.cells.csv").is_file()
        foreign = out / "notes.txt"
        foreign.write_text("mine", encoding="utf-8")
        build_dashboard(RunStore(tmp_path / "empty"), QUICK, out)
        assert not (out / "E8.cells.csv").exists()
        assert foreign.read_text(encoding="utf-8") == "mine"

    def test_render_never_simulates(self, tmp_path, monkeypatch):
        """Every cell fn is poisoned; a complete store must still build."""
        store = RunStore(tmp_path / "runs")
        _populate(store, ("E8",))

        def boom(cell):
            raise AssertionError("dashboard ran a measurement")

        monkeypatch.setattr("repro.experiments.base.run_cell", boom)
        monkeypatch.setattr("repro.runner.executor.run_cell", boom)
        written = build_dashboard(store, QUICK, tmp_path / "site")
        assert any(path.name == "E8.html" for path in written)


class TestDashboardExports:
    def test_campaign_json_round_trips_refit_fits(self, tmp_path):
        """The export reproduces every fit report --all --refit prints."""
        curve_experiments = [
            exp_id
            for exp_id, spec in ALL_SPECS.items()
            if spec.curves is not None
        ]
        store = RunStore(tmp_path / "runs")
        _populate(store, curve_experiments)
        build_dashboard(store, QUICK, tmp_path / "site")
        payload = json.loads(
            (tmp_path / "site" / "campaign.json").read_text()
        )
        for exp_id in curve_experiments:
            fits = payload["experiments"][exp_id]["fits"]
            refits = refit_from_store(store.root, exp_id, QUICK)
            assert set(fits) == set(refits), exp_id
            for name, exported in fits.items():
                # the rendered string is the exact --refit line payload
                assert exported["rendered"] == str(refits[name])
                # and the series round-trips: re-classifying the
                # exported (ns, bits) reproduces the fit verbatim
                refit = classify_growth(exported["ns"], exported["bits"])
                assert str(refit) == exported["rendered"]
                assert refit.model.name == exported["model"]
                assert refit.constant == exported["constant"]

    def test_campaign_json_cell_provenance(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        _populate(store, ("E8",))
        build_dashboard(store, QUICK, tmp_path / "site")
        payload = json.loads(
            (tmp_path / "site" / "campaign.json").read_text()
        )
        cells = payload["experiments"]["E8"]["cells"]
        plan = get_spec("E8").cells(QUICK)
        assert [c["key"] for c in cells] == [cell.key for cell in plan]
        for exported, cell in zip(cells, plan):
            assert exported["config_hash"] == cell.config_hash()
            assert (store.root / exported["path"]).is_file()

    def test_cells_csv_one_row_per_stored_cell(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        _populate(store, ("E8",))
        build_dashboard(store, QUICK, tmp_path / "site")
        lines = (
            (tmp_path / "site" / "E8.cells.csv")
            .read_text(encoding="utf-8")
            .splitlines()
        )
        plan = get_spec("E8").cells(QUICK)
        assert lines[0].startswith("exp_id,preset,key,mode,config_hash")
        assert len(lines) == 1 + len(plan)
        assert all(line.startswith("E8,quick,") for line in lines[1:])

    def test_bench_trajectory_folds_bench_files(self, tmp_path):
        bench = tmp_path / "benchmarks"
        bench.mkdir()
        (bench / "BENCH_2026-01-01.json").write_text(
            json.dumps({"date": "2026-01-01", "x": 1})
        )
        (bench / "BENCH_2026-02-01.json").write_text(
            json.dumps({"date": "2026-02-01", "x": 2})
        )
        (bench / "not-a-bench.json").write_text("{}")
        store = RunStore(tmp_path / "runs")
        build_dashboard(store, QUICK, tmp_path / "site", bench_dir=bench)
        payload = json.loads(
            (tmp_path / "site" / "bench-trajectory.json").read_text()
        )
        assert [e["file"] for e in payload["benchmarks"]] == [
            "BENCH_2026-01-01.json",
            "BENCH_2026-02-01.json",
        ]
        assert [e["data"]["x"] for e in payload["benchmarks"]] == [1, 2]

    def test_page_embeds_provenance_title_and_stale_warning(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        spec = get_spec("E8")
        _populate(store, ("E8",))
        cell = spec.cells(QUICK)[0]
        live = store.path_for(cell, QUICK)
        stale = live.with_name(f"{live.name.split('__')[0]}__{'0' * 12}.json")
        stale.write_text("{}", encoding="utf-8")
        build_dashboard(store, QUICK, tmp_path / "site")
        text = (tmp_path / "site" / "E8.html").read_text(encoding="utf-8")
        assert spec.title in text
        assert cell.config_hash() in text
        assert "stale store file" in text


class TestDashboardCLI:
    def test_dashboard_rejects_ids_and_report_flags(self, capsys):
        for argv, flag in (
            (["dashboard", "E8"], "E8"),
            (["dashboard", "--refit"], "--refit"),
            (["dashboard", "--prune-stale"], "--prune-stale"),
            (["dashboard", "--resume"], "--resume"),
            (["dashboard", "--no-store"], "--no-store"),
            (["dashboard", "--profile"], "--profile"),
            (["E8", "--open", "--no-store"], "--open"),
            (["E8", "--out", "site", "--no-store"], "--out"),
            (["report", "E8", "--bench-dir", "benchmarks"], "--bench-dir"),
        ):
            assert_rejected(capsys, argv, flag)

    def test_dashboard_honors_preset_and_prints_summary(
        self, tmp_path, capsys
    ):
        store = RunStore(tmp_path / "runs")
        _populate(store, ("E8",))
        out = tmp_path / "site"
        code = main(
            [
                "dashboard",
                "--preset",
                "quick",
                "--store",
                str(store.root),
                "--out",
                str(out),
                "--bench-dir",
                str(tmp_path / "none"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "no simulation" in captured.out
        payload = json.loads((out / "campaign.json").read_text())
        assert payload["preset"] == "quick"
        assert payload["experiments"]["E8"]["complete"] is True
        assert payload["experiments"]["E1"]["complete"] is False


class TestFleetProvenance:
    """The derived per-cell shard column (``--fleet N``): computed from
    cell identity at render time, never recorded — which is what keeps a
    merged fleet store's exports byte-identical to an unsharded one."""

    def test_default_fleet_is_single_machine(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        _populate(store, ("E8",))
        build_dashboard(store, QUICK, tmp_path / "site")
        payload = json.loads(
            (tmp_path / "site" / "campaign.json").read_text()
        )
        assert payload["fleet"] == 1
        for cell in payload["experiments"]["E8"]["cells"]:
            assert cell["shard"] == "1/1"

    def test_shard_column_matches_the_partition(self, tmp_path):
        from repro.runner import shard_index

        store = RunStore(tmp_path / "runs")
        _populate(store, ("E8", "E9"))
        code = main(
            [
                "dashboard",
                "--quick",
                "--store",
                str(store.root),
                "--out",
                str(tmp_path / "site"),
                "--fleet",
                "3",
            ]
        )
        assert code == 0
        payload = json.loads(
            (tmp_path / "site" / "campaign.json").read_text()
        )
        assert payload["fleet"] == 3
        for exp_id in ("E8", "E9"):
            for cell in payload["experiments"][exp_id]["cells"]:
                expected = shard_index(exp_id, cell["key"], 3) + 1
                assert cell["shard"] == f"{expected}/3"
        csv_head = (
            (tmp_path / "site" / "E8.cells.csv")
            .read_text()
            .splitlines()[0]
        )
        assert "shard" in csv_head.split(",")
        html = (tmp_path / "site" / "E8.html").read_text()
        assert "<th>shard</th>" in html

    def test_fleet_flag_validation(self, tmp_path, capsys):
        assert_rejected(
            capsys, ["E8", "--quick", "--fleet", "3", "--no-store"], "--fleet"
        )
        assert_rejected(
            capsys,
            ["dashboard", "--fleet", "0", "--store", str(tmp_path / "runs")],
            "positive fleet size",
        )


class TestSpecTitles:
    def test_every_spec_declares_its_title(self):
        for exp_id, spec in ALL_SPECS.items():
            assert spec.title, exp_id
            result = spec.run(QUICK) if exp_id == "E11" else None
            if result is not None:
                assert result.title == spec.title


class TestStructuredTables:
    def test_render_rows_backs_format_table(self):
        rows = [{"a": 1, "b": 2.5, "c": True}, {"a": 10, "c": False}]
        cols, rendered = render_rows(rows, ["a", "b", "c"])
        assert cols == ["a", "b", "c"]
        assert rendered == [["1", "2.500", "yes"], ["10", "", "no"]]
        text = format_table(rows, ["a", "b", "c"])
        for line in rendered:
            for cell in line:
                if cell:
                    assert cell in text

    def test_rows_to_csv_quotes_and_orders(self):
        rows = [{"k": 'x,"y"', "v": 1.25}]
        assert (
            rows_to_csv(rows, ["k", "v"])
            == 'k,v\n"x,""y""",1.250\n'
        )


class TestStoreTolerance:
    def test_truncated_record_warns_and_reads_as_missing(self, tmp_path):
        store = RunStore(tmp_path)
        spec = get_spec("E8")
        execute_plan(spec, QUICK, store=store)
        cell = spec.cells(QUICK)[0]
        path = store.path_for(cell, QUICK)
        path.write_text(path.read_text()[: 40], encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.load(cell, QUICK) is None

    def test_resumed_campaign_remeasures_truncated_cell(self, tmp_path):
        store = RunStore(tmp_path)
        spec = get_spec("E8")
        fresh = execute_plan(spec, QUICK, store=store)
        cell = spec.cells(QUICK)[0]
        path = store.path_for(cell, QUICK)
        path.write_text(path.read_text()[: 40], encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            resumed = execute_plan(spec, QUICK, store=store, resume=True)
        assert resumed.result.render() == fresh.result.render()
        assert resumed.cached_count == len(resumed.outcomes) - 1
        # the re-measured record was persisted back
        assert store.load(cell, QUICK) is not None

    def test_campaign_skip_set_built_from_one_store_walk(self, tmp_path):
        walks = 0

        class CountingStore(RunStore):
            def existing_files(self):
                nonlocal walks
                walks += 1
                return super().existing_files()

        store = CountingStore(tmp_path)
        _populate(store, ("E8", "E11"))
        walks = 0
        campaign = execute_campaign(
            [get_spec("E8"), get_spec("E11")], QUICK, store=store, resume=True
        )
        assert walks == 1
        assert campaign.cached_count == campaign.cell_count

    def test_load_campaign_skips_absent_without_probing(self, tmp_path):
        store = RunStore(tmp_path)
        spec = get_spec("E8")
        cells = spec.cells(QUICK)
        execute_plan(spec, QUICK, store=store)
        plans = {"E8": cells, "E11": get_spec("E11").cells(QUICK)}
        skip = store.load_campaign(plans, QUICK)
        assert sorted(skip) == ["E11", "E8"]
        assert sorted(skip["E8"]) == sorted(cell.key for cell in cells)
        assert skip["E11"] == {}


class TestPruneDryRun:
    def _plant_stale(self, store, spec):
        cell = spec.cells(QUICK)[0]
        live = store.path_for(cell, QUICK)
        stale = live.with_name(
            f"{live.name.split('__')[0]}__{'0' * 12}.json"
        )
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_text(json.dumps({"record": {}}), encoding="utf-8")
        return stale

    def test_dry_run_lists_bytes_and_deletes_nothing(
        self, tmp_path, capsys
    ):
        store = RunStore(tmp_path)
        spec = get_spec("E8")
        execute_plan(spec, QUICK, store=store)
        stale = self._plant_stale(store, spec)
        code = main(
            [
                "report",
                "E8",
                "--quick",
                "--store",
                str(tmp_path),
                "--prune-stale",
                "--dry-run",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert f"would reclaim {stale.stat().st_size} bytes" in err
        assert "nothing deleted" in err
        assert stale.is_file()

    def test_real_prune_reports_reclaimed_bytes(self, tmp_path, capsys):
        store = RunStore(tmp_path)
        spec = get_spec("E8")
        execute_plan(spec, QUICK, store=store)
        stale = self._plant_stale(store, spec)
        size = stale.stat().st_size
        code = main(
            [
                "report",
                "E8",
                "--quick",
                "--store",
                str(tmp_path),
                "--prune-stale",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert f"reclaimed {size} bytes" in err
        assert not stale.exists()

    def test_prune_never_touches_sizes_override_records(
        self, tmp_path, capsys
    ):
        """--sizes records share the preset dir but are never stale."""
        store = RunStore(tmp_path)
        spec = get_spec("E8")
        execute_plan(spec, QUICK, store=store)
        override = RunProfile(preset="quick", sizes=(9, 18, 27))
        execute_plan(spec, override, store=store)
        override_paths = [
            store.path_for(cell, override) for cell in spec.cells(override)
        ]
        for prune_args in (["--prune-stale", "--dry-run"], ["--prune-stale"]):
            code = main(
                ["report", "E8", "--quick", "--store", str(tmp_path)]
                + prune_args
            )
            assert code == 0
        assert all(path.is_file() for path in override_paths)
        # and pruning over the override plan leaves the default records
        # alone, symmetrically (exit code reflects the claim check at
        # these tiny sizes, not the hygiene pass under test)
        main(
            [
                "report",
                "E8",
                "--quick",
                "--sizes",
                "9,18,27",
                "--store",
                str(tmp_path),
                "--prune-stale",
            ]
        )
        assert all(
            store.path_for(cell, QUICK).is_file()
            for cell in spec.cells(QUICK)
        )


class TestAssembleAndTimeline:
    def test_assemble_marks_partial_experiments(self, tmp_path):
        store = RunStore(tmp_path)
        spec = get_spec("E8")
        execute_plan(spec, QUICK, store=store)
        # drop one record -> partial
        store.path_for(spec.cells(QUICK)[0], QUICK).unlink()
        view = assemble(store, QUICK, specs=[spec])
        (e8,) = view.experiments
        assert not e8.complete
        assert e8.status == "partial"
        assert len(e8.missing) == 1
        assert e8.result is None

    def test_lpt_schedule_is_deterministic_and_complete(self, tmp_path):
        store = RunStore(tmp_path)
        _populate(store, ("E8", "E11"))
        view = assemble(store, QUICK)
        lanes_a, makespan_a = lpt_schedule(view, 3)
        lanes_b, makespan_b = lpt_schedule(view, 3)
        assert makespan_a == makespan_b > 0
        assert [
            [(cell.key, start) for _exp, cell, start in lane]
            for lane in lanes_a
        ] == [
            [(cell.key, start) for _exp, cell, start in lane]
            for lane in lanes_b
        ]
        scheduled = sum(len(lane) for lane in lanes_a)
        assert scheduled == view.stored_cells
        # heaviest-first: the longest stored cell starts at t=0
        heaviest = max(
            (cell.seconds for exp in view.experiments for cell in exp.cells),
        )
        starts_at_zero = {
            cell.seconds
            for lane in lanes_a
            for _exp, cell, start in lane
            if start == 0.0
        }
        assert heaviest in starts_at_zero
