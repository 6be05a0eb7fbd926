"""CLI surface of the hub: admin verbs plus --tenant/--token remotes."""

import io
import threading

import pytest

from repro.cli import main
from repro.hub import RepositoryHub, serve_hub


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def hub_root(tmp_path):
    root = str(tmp_path / "hub")
    assert run_cli(["hub", "init", root])[0] == 0
    code, text = run_cli([
        "hub", "add-tenant", root, "ana",
        "--token", "secret-a", "--quota-bytes", "100000000",
    ])
    assert code == 0 and "ana" in text
    return root


@pytest.fixture
def served_hub(hub_root):
    """The hub served over HTTP by the same code path the CLI uses."""
    hub = RepositoryHub(hub_root)
    server = serve_hub(hub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield hub, server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def init_repo(path, commits=1):
    code, _ = run_cli([
        "init", str(path), "--workload", "readmission",
        "--scale", "0.3", "--commits", str(commits),
    ])
    assert code == 0


class TestHubAdminVerbs:
    def test_add_tenant_reports_terms(self, tmp_path):
        root = str(tmp_path / "h")
        run_cli(["hub", "init", root])
        code, text = run_cli([
            "hub", "add-tenant", root, "t", "--token", "s", "--token", "s2",
        ])
        assert code == 0
        assert text.strip() == "tenant 't': 2 token(s), quota unlimited bytes"

    def test_create_repo_with_explicit_config(self, hub_root):
        code, text = run_cli([
            "hub", "create-repo", hub_root, "ana/proj",
            "--metric", "f1", "--seed", "3",
        ])
        assert code == 0
        assert "'f1'" in text and "seed 3" in text

    def test_create_repo_bad_slug_fails_cleanly(self, hub_root):
        code, text = run_cli(["hub", "create-repo", hub_root, "no-slash"])
        assert code == 1
        assert "TENANT/REPO" in text

    def test_create_repo_unknown_tenant_fails_cleanly(self, hub_root):
        code, text = run_cli(["hub", "create-repo", hub_root, "ghost/proj"])
        assert code == 1
        assert "unknown tenant" in text


class TestHubClientFlags:
    def test_push_clone_pull_with_tenant_and_token(
        self, served_hub, tmp_path
    ):
        hub, server = served_hub
        repo_dir = tmp_path / "local"
        init_repo(repo_dir, commits=2)

        code, text = run_cli([
            "push", str(repo_dir), server.url,
            "--tenant", "ana/proj", "--token", "secret-a",
        ])
        assert code == 0 and "pushed readmission:master" in text

        code, text = run_cli([
            "clone", server.repo_url("ana", "proj"), str(tmp_path / "clone"),
            "--token", "secret-a",
        ])
        assert code == 0 and "3 commits" in text

        # pull through the --tenant form is a no-op (already current)
        code, text = run_cli([
            "pull", str(tmp_path / "clone"), server.url,
            "--tenant", "ana/proj", "--token", "secret-a",
        ])
        assert code == 0 and "up-to-date" in text

    def test_wrong_token_fails_cleanly(self, served_hub, tmp_path):
        hub, server = served_hub
        repo_dir = tmp_path / "local"
        init_repo(repo_dir)
        code, text = run_cli([
            "push", str(repo_dir), server.url,
            "--tenant", "ana/proj", "--token", "wrong",
        ])
        assert code == 1
        assert "token" in text.lower()

    def test_tenant_flag_requires_http_remote(self, tmp_path):
        init_repo(tmp_path / "a")
        init_repo(tmp_path / "b")
        code, text = run_cli([
            "push", str(tmp_path / "a"), str(tmp_path / "b"),
            "--tenant", "ana/proj",
        ])
        assert code == 1
        assert "http" in text

    def test_malformed_tenant_slug_fails_cleanly(self, tmp_path):
        init_repo(tmp_path / "a")
        code, text = run_cli([
            "push", str(tmp_path / "a"), "http://127.0.0.1:1",
            "--tenant", "justaname",
        ])
        assert code == 1
        assert "TENANT/REPO" in text


class TestHubServeBounded:
    def test_serve_requests_budget_exits(self, hub_root, tmp_path):
        init_repo(tmp_path / "local")
        results = {}

        def serve():
            results["code"], results["text"] = run_cli([
                "hub", "serve", hub_root, "--port", "0", "--requests", "0",
            ])

        # --requests 0 returns without accepting anything: the loop
        # condition is already satisfied.
        thread = threading.Thread(target=serve)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert results["code"] == 0
        assert "serving hub" in results["text"]
