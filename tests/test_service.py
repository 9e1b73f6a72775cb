"""Tests for the continuous verification service (daemon layer).

The expensive fixtures run one *cold* sweep of the todo app under the
quick config (55 pairs, ~a second) and then clone the whole tree — app
sources plus the warm on-disk cache — per test, so every incremental
scenario starts from an identical, deterministic baseline.
"""

from __future__ import annotations

import os
import shutil
from types import SimpleNamespace

import pytest

from repro.apps.todo import build_app as build_todo
from repro.georep import (
    Deployment,
    DeploymentConfig,
    RequestSpec,
    RestrictionSetSubscription,
)
from repro.georep.workload import Workload
from repro.orm import Database
from repro.service import (
    SpecError,
    SourceWatcher,
    VerificationService,
    builtin_spec,
    directory_spec,
    export_builtin_app,
    parse_app_arg,
)
from repro.verifier import CheckConfig

#: the CLI's --quick config; every count below is pinned against it
QUICK = CheckConfig(timeout_s=60.0, max_samples=60, max_exhaustive=800)

#: the edit that touches one view (CompleteTask) without changing any
#: verdict: exactly the 10 CompleteTask pairs out of 55 miss the warm
#: cache and re-solve (todo's creating updates defeat rw-pruning)
PRIORITY_OLD = "task.done = True"
PRIORITY_NEW = "task.done = True\n        task.priority = 1"

#: the edit that changes the restriction set: ToggleStar becomes a
#: delete, so its conflict row changes and the version must bump
STAR_OLD = """\
        if task.starred:
            task.starred = False
        else:
            task.starred = True
        task.save()"""
STAR_NEW = "        task.delete()"


def edit(app_dir, old: str, new: str) -> None:
    source = app_dir / "app.py"
    text = source.read_text()
    assert old in text, f"fixture drift: {old!r} not in exported app.py"
    source.write_text(text.replace(old, new))


def make_service(root) -> SimpleNamespace:
    app_dir = root / "app"
    if not app_dir.is_dir():
        export_builtin_app("todo", app_dir)
    spec = directory_spec("todo", str(app_dir))
    service = VerificationService(
        [spec], QUICK, cache_dir=str(root / "cache"))
    return SimpleNamespace(root=root, app_dir=app_dir, service=service)


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One cold-swept todo service; treat as read-only."""
    ctx = make_service(tmp_path_factory.mktemp("service-cold"))
    stats = ctx.service.run_cycle()
    assert len(stats) == 1
    ctx.stats = stats[0]
    return ctx


@pytest.fixture()
def clone(cold, tmp_path):
    """A fresh service over a copy of the cold tree (warm cache)."""
    root = tmp_path / "tree"
    shutil.copytree(cold.root, root)
    return make_service(root)


class TestSourceWatcher:
    def test_prime_then_clean_poll(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("y = 2\n")
        watcher = SourceWatcher(tmp_path)
        assert watcher.prime() == 2
        delta = watcher.poll()
        assert not delta.changed and delta.files == ()

    def test_touch_without_content_change_is_no_delta(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("x = 1\n")
        watcher = SourceWatcher(tmp_path)
        watcher.prime()
        stat = target.stat()
        os.utime(target, ns=(stat.st_atime_ns + 10_000_000,
                             stat.st_mtime_ns + 10_000_000))
        assert not watcher.poll().changed  # digest unchanged

    def test_modify_add_remove(self, tmp_path):
        a, b = tmp_path / "a.py", tmp_path / "b.py"
        a.write_text("x = 1\n")
        b.write_text("y = 2\n")
        watcher = SourceWatcher(tmp_path)
        watcher.prime()
        a.write_text("x = 3\n")
        b.unlink()
        (tmp_path / "c.py").write_text("z = 4\n")
        delta = watcher.poll()
        assert delta.modified == ("a.py",)
        assert delta.removed == ("b.py",)
        assert delta.added == ("c.py",)
        assert delta.files == ("a.py", "b.py", "c.py")
        # the poll rebased the snapshot: next poll is clean
        assert not watcher.poll().changed

    def test_non_python_files_ignored(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        watcher = SourceWatcher(tmp_path)
        watcher.prime()
        (tmp_path / "notes.txt").write_text("ignored")
        assert not watcher.poll().changed


class TestSpecs:
    def test_parse_builtin(self):
        spec = parse_app_arg("todo")
        assert spec.builtin and spec.name == "todo"
        assert spec.build().name  # importable and buildable

    def test_parse_directory(self, tmp_path):
        export_builtin_app("todo", tmp_path / "t")
        spec = parse_app_arg(f"mytodo={tmp_path / 't'}")
        assert not spec.builtin and spec.name == "mytodo"

    def test_unknown_builtin_rejected(self):
        with pytest.raises(SpecError):
            parse_app_arg("no-such-app")

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(SpecError):
            parse_app_arg(f"x={tmp_path / 'absent'}")

    def test_export_rewrites_relative_imports(self, tmp_path):
        export_builtin_app("todo", tmp_path / "t")
        text = (tmp_path / "t" / "app.py").read_text()
        assert "from repro.orm import" in text
        assert "from ..." not in text

    def test_exported_app_analyzes_like_builtin(self, tmp_path):
        export_builtin_app("todo", tmp_path / "t")
        exported = directory_spec("todo", str(tmp_path / "t")).build()
        assert ({p.name for p in exported.endpoints()}
                == {p.name for p in builtin_spec("todo").build().endpoints()})


class TestColdCycle:
    def test_cold_solves_every_unpruned_pair(self, cold):
        stats = cold.stats
        assert stats.trigger == "initial"
        assert stats.pairs_total == 55  # 10 effectful paths
        assert stats.solver_calls == len(stats.invalidated) > 0
        assert stats.cache_hits == 0
        assert stats.restrictions > 0
        assert stats.unknowns == 0
        assert stats.version == 1 and stats.version_changed

    def test_clean_poll_skips_reverification(self, cold):
        assert cold.service.run_cycle() == []

    def test_forced_warm_cycle_solves_nothing(self, cold):
        [stats] = cold.service.run_cycle(force=True)
        assert stats.trigger == "forced"
        assert stats.invalidated == ()
        assert stats.solver_calls == 0
        assert stats.cache_hits == cold.stats.solver_calls
        assert stats.version == 1 and not stats.version_changed

    def test_registry_counts_cycles(self, cold):
        registry = cold.service.registry
        assert registry.value(
            "noctua_service_reverifies_total", app="todo") >= 1
        assert registry.value(
            "noctua_service_restriction_version", app="todo") == 1.0


class TestIncrementalInvalidation:
    def test_single_view_edit_invalidates_only_its_pairs(self, cold, clone):
        edit(clone.app_dir, PRIORITY_OLD, PRIORITY_NEW)
        [stats] = clone.service.run_cycle()
        assert stats.files == ("app.py",)
        # only CompleteTask pairs miss the warm cache...
        assert all(any(name.startswith("CompleteTask") for name in pair)
                   for pair in stats.invalidated)
        assert len(stats.invalidated) == 10
        # ...and the sweep solved exactly those (report.metrics)
        assert stats.solver_calls == len(stats.invalidated)
        assert stats.cache_hits == cold.stats.solver_calls - 10
        # stale fingerprints of the edited view were pruned
        assert stats.pruned_entries == 10
        # acceptance bar: warm work < 20% of the cold pair count
        assert stats.solver_calls < 0.20 * cold.stats.pairs_total

    def test_same_edit_yields_same_invalidated_set(self, cold, tmp_path):
        runs = []
        for i in range(2):
            root = tmp_path / f"tree{i}"
            shutil.copytree(cold.root, root)
            ctx = make_service(root)
            edit(ctx.app_dir, PRIORITY_OLD, PRIORITY_NEW)
            [stats] = ctx.service.run_cycle()
            runs.append(stats)
        assert runs[0].invalidated == runs[1].invalidated
        assert runs[0].solver_calls == runs[1].solver_calls
        assert runs[0].restrictions == runs[1].restrictions

    def test_version_bumps_only_when_conflicts_change(self, clone):
        service = clone.service
        [warm] = service.run_cycle(force=True)  # adopt the warm cache
        assert warm.version == 1
        subscription = service.subscribe("todo")
        assert subscription.version == 1
        _, table_v1 = subscription.current()

        # verdict-preserving edit: re-verifies, publishes nothing
        edit(clone.app_dir, PRIORITY_OLD, PRIORITY_NEW)
        [stats] = service.run_cycle()
        assert stats.trigger == "change"
        assert not stats.version_changed and stats.version == 1
        assert subscription.version == 1

        # restriction-changing edit: ToggleStar becomes a delete
        edit(clone.app_dir, STAR_OLD, STAR_NEW)
        [stats] = service.run_cycle()
        assert stats.trigger == "change"
        assert stats.version_changed and stats.version == 2
        assert subscription.version == 2
        _, table_v2 = subscription.current()
        assert table_v2 != table_v1
        assert any("ToggleStar" in pair for pair in table_v2 - table_v1)


def todo_workload(app, db, write_ratio=0.4, seed=11) -> Workload:
    """Seed ten tasks and build a small read/write mix."""
    Task = app.registry.get_model("Task")
    with db.activate():
        pks = [Task.objects.create(title=f"t{i}").pk for i in range(10)]
    wl = Workload(app, db, write_ratio, seed)
    wl.reads = [
        lambda rng: RequestSpec("/tasks", "GET", {}, False),
        lambda rng: RequestSpec("/tasks/pending", "GET", {}, False),
    ]
    wl.writes = [
        lambda rng: RequestSpec(
            f"/tasks/{rng.choice(pks)}/complete", "POST", {}, True),
        lambda rng: RequestSpec(
            f"/tasks/{rng.choice(pks)}/star", "POST", {}, True),
    ]
    return wl


class TestHotReload:
    CONFIG = DeploymentConfig(duration_ms=300.0, warmup_ms=20.0,
                              clients_per_site=2)

    def test_subscription_publish_and_version(self):
        subscription = RestrictionSetSubscription()
        assert subscription.version == 0
        table = {frozenset({"A", "B"})}
        assert subscription.publish(table) == 1
        assert subscription.publish(table, version=5) == 5
        version, got = subscription.current()
        assert version == 5 and got == table
        got.add(frozenset({"C"}))  # current() returns a copy
        assert subscription.current()[1] == table

    def test_deployment_reloads_mid_run(self):
        app = build_todo()
        db = Database(app.registry)
        workload = todo_workload(app, db)
        subscription = RestrictionSetSubscription()
        v1 = {frozenset({"CompleteTask", "ToggleStar"})}
        subscription.publish(v1, version=1)
        deployment = Deployment(app, db, workload, set(),
                                config=self.CONFIG,
                                subscription=subscription)
        assert deployment.restriction_version == 1  # adopted at start
        v2 = v1 | {frozenset({"CompleteTask"})}
        deployment.sim.schedule(
            100.0, lambda: subscription.publish(v2, version=2))
        summary = deployment.run()
        assert deployment.restriction_version == 2
        assert deployment.restriction_reloads == 1
        assert deployment.coordinator.conflict_table == v2
        assert summary.requests > 0
        assert summary.error_fraction == 0.0

    def test_service_publish_reaches_running_deployment(self, clone):
        """The full loop: edit -> re-verify -> publish -> hot reload,
        while the deployment is mid-simulation."""
        service = clone.service
        service.run_cycle(force=True)  # warm adopt, version 1
        subscription = service.subscribe("todo")
        app = build_todo()
        db = Database(app.registry)
        deployment = Deployment(app, db, todo_workload(app, db), set(),
                                config=self.CONFIG,
                                subscription=subscription)
        assert deployment.restriction_version == 1

        def change_and_reverify():
            edit(clone.app_dir, STAR_OLD, STAR_NEW)
            service.run_cycle()

        deployment.sim.schedule(100.0, change_and_reverify)
        summary = deployment.run()
        # the deployment observed the new set without restart...
        assert deployment.restriction_version == 2
        assert deployment.restriction_reloads == 1
        state = service.apps["todo"]
        assert deployment.coordinator.conflict_table == state.conflict_table
        # ...and converged cleanly under the reloaded restrictions
        assert summary.requests > 0
        assert summary.error_fraction == 0.0
