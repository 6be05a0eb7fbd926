"""RepositoryHub: routing, admission, dedup accounting, LRU lifecycle."""

import json

import pytest

from repro.errors import (
    AuthenticationError,
    AuthorizationError,
    HubError,
    QuotaExceededError,
    RemoteProtocolError,
    RepositoryNotFoundError,
)
from repro.hub import RepositoryHub
from repro.remote import clone_repository
from repro.remote.protocol import decode_message, encode_message

from helpers import build_workload_repo as build_local_repo


def push_to(hub, local, workload, tenant, repo, token):
    remote = local.add_remote(
        f"{tenant}-{repo}", hub.local_transport(tenant, repo, token)
    )
    return remote.push(workload.name)


class TestRoutingAndAuth:
    def test_push_then_clone_roundtrip(self, hub, local_repo, workload):
        result = push_to(hub, local_repo, workload, "ana", "proj", "tok-ana")
        assert result.commits_sent == 2
        clone = clone_repository(
            hub.local_transport("ana", "proj", "tok-ana"),
            registry=local_repo.registry,
        )
        assert len(clone.graph) == 2
        assert clone.head_commit(workload.name).commit_id == (
            local_repo.head_commit(workload.name).commit_id
        )

    def test_two_tenants_route_to_distinct_repos(self, hub, workload):
        ana = build_local_repo(workload, commits=1)
        ben = build_local_repo(workload, commits=3)
        push_to(hub, ana, workload, "ana", "proj", "tok-ana")
        push_to(hub, ben, workload, "ben", "proj", "tok-ben")
        clone_a = clone_repository(hub.local_transport("ana", "proj", "tok-ana"))
        clone_b = clone_repository(hub.local_transport("ben", "proj", "tok-ben"))
        assert len(clone_a.graph) == 2
        assert len(clone_b.graph) == 4

    def test_missing_token_rejected(self, hub, local_repo, workload):
        with pytest.raises(AuthenticationError):
            push_to(hub, local_repo, workload, "ana", "proj", None)

    def test_unknown_token_rejected(self, hub, local_repo, workload):
        with pytest.raises(AuthenticationError):
            push_to(hub, local_repo, workload, "ana", "proj", "nope")

    def test_cross_tenant_token_rejected_even_for_reads(
        self, hub, local_repo, workload
    ):
        push_to(hub, local_repo, workload, "ana", "proj", "tok-ana")
        with pytest.raises(AuthorizationError):
            clone_repository(hub.local_transport("ana", "proj", "tok-ben"))

    def test_second_token_of_a_tenant_works(self, hub, local_repo, workload):
        push_to(hub, local_repo, workload, "ben", "proj", "tok-ben-ci")
        clone = clone_repository(hub.local_transport("ben", "proj", "tok-ben"))
        assert len(clone.graph) == 2

    def test_clone_of_missing_repo_is_typed_not_found(self, hub):
        with pytest.raises(RepositoryNotFoundError):
            clone_repository(hub.local_transport("ana", "ghost", "tok-ana"))

    def test_path_hostile_names_rejected(self, hub, local_repo, workload):
        with pytest.raises(HubError):
            push_to(hub, local_repo, workload, "../../etc", "x", "tok-ana")

    def test_auto_created_repo_adopts_pushers_config(self, hub, workload):
        local = build_local_repo(workload, metric="f1", seed=9)
        push_to(hub, local, workload, "ana", "tuned", "tok-ana")
        clone = clone_repository(hub.local_transport("ana", "tuned", "tok-ana"))
        assert clone.metric == "f1"
        assert clone.seed == 9

    def test_operator_created_repo_keeps_its_config(self, hub, workload):
        """create_repo --metric wins over the first pusher's repo_config."""
        hub.create_repo("ana", "tuned", metric="operator-metric", seed=42)
        local = build_local_repo(workload, metric="f1", seed=9)
        push_to(hub, local, workload, "ana", "tuned", "tok-ana")
        clone = clone_repository(hub.local_transport("ana", "tuned", "tok-ana"))
        assert clone.metric == "operator-metric"
        assert clone.seed == 42

    def test_duplicate_token_across_tenants_rejected(self, hub):
        with pytest.raises(HubError, match="unique across tenants"):
            hub.add_tenant("carl", tokens=["tok-ana"])
        # re-adding the same tenant with its own token still works
        hub.add_tenant("ana", tokens=["tok-ana"], quota_bytes=123)
        assert hub.authenticator.tenant("ana").quota_bytes == 123


class TestDedupAccounting:
    def test_identical_pushes_store_physical_bytes_once(self, hub, workload):
        local = build_local_repo(workload)
        push_to(hub, local, workload, "ana", "proj", "tok-ana")
        push_to(hub, local, workload, "ben", "proj", "tok-ben")
        stats = hub.stats()
        usage_a = stats["tenant_usage"]["ana"]
        usage_b = stats["tenant_usage"]["ben"]
        assert usage_a == usage_b > 0
        # both tenants charged in full, bytes stored once
        assert stats["physical_bytes"] == usage_a
        # and each tenant's written-bytes series counts its own holdings
        for tenant in ("ana", "ben"):
            assert hub.registry.value(
                "repro_chunk_written_bytes_total", tenant=tenant, repo="proj"
            ) == usage_a

    def test_divergent_content_adds_physical_bytes(self, hub, workload):
        push_to(hub, build_local_repo(workload, commits=1), workload,
                "ana", "proj", "tok-ana")
        before = hub.stats()["physical_bytes"]
        push_to(hub, build_local_repo(workload, commits=3), workload,
                "ben", "proj", "tok-ben")
        after = hub.stats()
        assert after["physical_bytes"] > before
        # shared prefix still dedups: ben pays full logical usage but the
        # deployment stores less than the sum
        total_logical = sum(after["tenant_usage"].values())
        assert after["physical_bytes"] < total_logical


class TestQuota:
    def test_over_quota_push_rejected_without_mutation(self, workload):
        hub = RepositoryHub()
        hub.add_tenant("tiny", tokens=["tok"], quota_bytes=64)
        local = build_local_repo(workload)
        with pytest.raises(QuotaExceededError):
            push_to(hub, local, workload, "tiny", "proj", "tok")
        assert hub.tenant_usage("tiny") == 0
        assert hub.backend.physical_bytes == 0
        # the denied push did not leave a phantom repo squatting the name
        with pytest.raises(RepositoryNotFoundError):
            clone_repository(hub.local_transport("tiny", "proj", "tok"))
        # ...though push preflight reads still answer empty-repo semantics
        assert local.remote("tiny-proj").manifest()["refs"] == {}

    def test_quota_rejection_leaves_existing_history_intact(self, workload):
        hub = RepositoryHub()
        local = build_local_repo(workload)
        hub.add_tenant("t", tokens=["tok"], quota_bytes=None)
        push_to(hub, local, workload, "t", "proj", "tok")
        usage = hub.tenant_usage("t")
        head = clone_repository(
            hub.local_transport("t", "proj", "tok")
        ).head_commit(workload.name).commit_id

        # shrink the quota to current usage, then try to push more
        hub.add_tenant("t", tokens=["tok"], quota_bytes=usage)
        local.commit(
            workload.name,
            {"model": workload.model_version(7)},
            message="over the line",
        )
        with pytest.raises(QuotaExceededError):
            local.remote("t-proj").push(workload.name)
        assert hub.tenant_usage("t") == usage
        clone = clone_repository(hub.local_transport("t", "proj", "tok"))
        assert clone.head_commit(workload.name).commit_id == head

    def test_quota_spans_all_repos_of_a_tenant(self, workload):
        hub = RepositoryHub()
        local = build_local_repo(workload)
        hub.add_tenant("t", tokens=["tok"])
        push_to(hub, local, workload, "t", "one", "tok")
        usage_one = hub.tenant_usage("t")
        # same content into a second repo: logical usage doubles...
        push_to(hub, local, workload, "t", "two", "tok")
        assert hub.tenant_usage("t") == 2 * usage_one
        # ...while the deployment stores it once
        assert hub.backend.physical_bytes == usage_one

    def test_within_quota_push_admitted(self, workload):
        hub = RepositoryHub()
        hub.add_tenant("t", tokens=["tok"], quota_bytes=500_000_000)
        result = push_to(
            hub, build_local_repo(workload), workload, "t", "proj", "tok"
        )
        assert result.commits_sent == 2
        assert 0 < hub.tenant_usage("t") <= 500_000_000

    @pytest.mark.parametrize(
        "meta, blobs",
        [
            ({"op": "push", "chunk_digests": [["x"]], "refs": {}}, [b"blob"]),
            ({"op": "put_chunks", "digests": [{"a": 1}]}, [b"blob"]),
        ],
        ids=["push", "put_chunks"],
    )
    def test_malformed_write_on_quota_tenant_is_typed(self, meta, blobs):
        """Quota arithmetic used to read the digest list before any
        schema check ran: unhashable digests escaped as ``internal hub
        error: TypeError`` (reason ``internal``) — only on tenants with
        a quota. Validation now runs in admission, before the repo is
        acquired (auto-created) and before quota state is read."""
        from repro.remote.protocol import (
            decode_message,
            encode_message,
            raise_remote_error,
        )

        hub = RepositoryHub()
        hub.add_tenant("tiny", tokens=["tok"], quota_bytes=10**6)
        response = hub.handle_request(
            "tiny", "proj", "tok", encode_message(meta, blobs)
        )
        with pytest.raises(RemoteProtocolError) as raised:
            raise_remote_error(decode_message(response)[0])
        assert str(raised.value) == (
            f"remote rejected request: invalid {meta['op']} request: "
            "chunk digests must be a list of strings"
        )
        denied = {
            reason: hub.registry.value(
                "repro_admission_denied_total", tenant="tiny", reason=reason
            )
            for reason in ("protocol", "internal")
        }
        assert denied == {"protocol": 1, "internal": 0}
        assert hub.list_repos("tiny") == []
        assert hub.tenant_usage("tiny") == 0


    @pytest.mark.parametrize(
        "token, error", [("wrong", AuthenticationError), ("tok", RemoteProtocolError)]
    )
    def test_a_header_that_is_not_an_object_is_typed_after_auth(self, token, error):
        """A 13-byte frame whose header is the JSON array ``[1,2]`` used
        to escape the decode as an ``AttributeError``, out of a handler
        documented never to raise, before authentication. It is a
        protocol error now, answered where every decode failure is: an
        unauthenticated peer gets the auth error."""
        import struct

        from repro.remote.protocol import MAGIC, decode_message, raise_remote_error

        hub = RepositoryHub()
        hub.add_tenant("t", tokens=["tok"])
        frame = MAGIC + struct.pack(">I", 5) + b"[1,2]"
        assert len(frame) == 13
        response = hub.handle_request("t", "proj", token, frame)
        with pytest.raises(error):
            raise_remote_error(decode_message(response)[0])
        assert hub.list_repos("t") == []


class TestHubGC:
    def test_gc_reclaims_orphans_and_frees_quota(self, hub, workload):
        """Chunks pre-seeded by a push that never completed (put_chunks
        orphans) charge the tenant until the operator sweeps them."""
        from repro.remote.protocol import (
            decode_message,
            encode_message,
            raise_remote_error,
        )

        local = build_local_repo(workload)
        push_to(hub, local, workload, "ana", "proj", "tok-ana")
        usage_after_push = hub.tenant_usage("ana")

        # simulate an interrupted streamed push: orphan chunks land,
        # the final ref update never arrives
        transport = hub.local_transport("ana", "proj", "tok-ana")
        orphan = b"orphan-bytes" * 1000
        from repro.storage.hashing import sha256_hex

        meta, _ = decode_message(
            transport.call(
                encode_message(
                    {"op": "put_chunks", "digests": [sha256_hex(orphan)]},
                    [orphan],
                )
            )
        )
        raise_remote_error(meta)
        assert hub.tenant_usage("ana") == usage_after_push + len(orphan)

        report = hub.gc_repo("ana", "proj")
        assert report.swept_bytes >= len(orphan)
        assert hub.tenant_usage("ana") <= usage_after_push
        # history still serves after the sweep
        clone = clone_repository(hub.local_transport("ana", "proj", "tok-ana"))
        assert len(clone.graph) == 2

    def test_gc_shared_chunks_survive_for_other_tenants(self, hub, workload):
        local = build_local_repo(workload)
        push_to(hub, local, workload, "ana", "proj", "tok-ana")
        push_to(hub, local, workload, "ben", "proj", "tok-ben")
        physical = hub.backend.physical_bytes
        # everything ana holds is commit-reachable: nothing to sweep,
        # and ben's identical content is untouched either way
        report = hub.gc_repo("ana", "proj")
        assert report.swept_chunks == 0
        assert hub.backend.physical_bytes == physical
        clone = clone_repository(hub.local_transport("ben", "proj", "tok-ben"))
        assert len(clone.graph) == 2

    def test_gc_missing_repo_is_typed(self, hub):
        with pytest.raises(RepositoryNotFoundError):
            hub.gc_repo("ana", "ghost")


class TestTenantConfigValidation:
    """A malformed tenant term is refused where it is given, naming the
    tenant and the field — never registered to misbehave later."""

    @pytest.mark.parametrize("terms, field", [
        # One string would split into one-character tokens, each one
        # authenticating as the tenant.
        ({"tokens": "secret"}, "tokens"),
        ({"tokens": b"secret"}, "tokens"),
        ({"tokens": 7}, "tokens"),
        ({"tokens": ["ok", ""]}, "tokens"),
        ({"tokens": ["ok", 7]}, "tokens"),
        ({"tokens": [None]}, "tokens"),
        ({"quota_bytes": "10"}, "quota_bytes"),
        ({"quota_bytes": 10.0}, "quota_bytes"),
        ({"quota_bytes": True}, "quota_bytes"),
        ({"quota_bytes": 0}, "quota_bytes"),
        ({"quota_bytes": -5}, "quota_bytes"),
    ], ids=lambda value: repr(value) if not isinstance(value, str) else value)
    def test_add_tenant_refuses_by_name(self, terms, field):
        hub = RepositoryHub()
        with pytest.raises(HubError, match=f"tenant 't': '{field}'"):
            hub.add_tenant("t", **{"tokens": ["tok"], **terms})
        assert not hub.authenticator.has_tenant("t")

    def test_a_one_string_token_list_never_authenticates_its_letters(self):
        hub = RepositoryHub()
        with pytest.raises(HubError):
            hub.add_tenant("t", tokens="secret")
        response = hub.handle_request(
            "t", "proj", "s", encode_message({"op": "manifest"})
        )
        assert decode_message(response)[0]["error"]["type"] == "AuthenticationError"

    @pytest.mark.parametrize("entry, field", [
        ({"tokens": "secret"}, "tokens"),
        ({"tokens": ["tok"], "quota_bytes": "10"}, "quota_bytes"),
        ({"tokens": ["tok"], "quota_bytes": True}, "quota_bytes"),
    ], ids=["one-string-tokens", "string-quota", "bool-quota"])
    def test_hub_json_is_validated_at_start_up(self, tmp_path, entry, field):
        write_hub_json(tmp_path, {"t": entry})
        with pytest.raises(HubError, match=f"tenant 't': '{field}'"):
            RepositoryHub(tmp_path)

    @pytest.mark.parametrize("entry", [["tok"], "tok", None], ids=["list", "str", "null"])
    def test_a_hub_json_entry_that_is_not_an_object_is_refused(self, tmp_path, entry):
        write_hub_json(tmp_path, {"t": entry})
        with pytest.raises(HubError, match="tenant 't': hub.json entry must be an object"):
            RepositoryHub(tmp_path)

    def test_valid_terms_register(self):
        config = RepositoryHub().add_tenant("t", tokens=("a", "b"), quota_bytes=10)
        assert (config.tokens, config.quota_bytes) == (("a", "b"), 10)


def write_hub_json(root, tenants):
    (root / "hub.json").write_text(json.dumps({"format": 1, "tenants": tenants}))


class TestHubJsonCompatibility:
    """Every hub.json written before per-tenant rate limits were removed
    carries their two fields as null; a file that sets one is refused,
    since dropping a configured limit would change admission silently."""

    def test_null_rate_fields_load(self, tmp_path):
        write_hub_json(tmp_path, {"t": {
            "tokens": ["tok"], "quota_bytes": 1000,
            "rate_per_second": None, "burst": None,
        }})
        hub = RepositoryHub(tmp_path)
        config = hub.authenticator.tenant("t")
        assert (config.tokens, config.quota_bytes) == (("tok",), 1000)
        assert hub.authenticator.authenticate("tok") == "t"
        # The next write of the file drops the dead fields.
        hub.add_tenant("u", tokens=["tok-u"])
        saved = json.loads((tmp_path / "hub.json").read_text())
        assert saved["tenants"]["t"] == {"tokens": ["tok"], "quota_bytes": 1000}

    @pytest.mark.parametrize("field", ["rate_per_second", "burst"])
    def test_a_set_rate_field_is_refused_by_name(self, tmp_path, field):
        write_hub_json(tmp_path, {"t": {
            "tokens": ["tok"], "quota_bytes": None,
            "rate_per_second": None, "burst": None, field: 5.0,
        }})
        with pytest.raises(HubError, match=f"tenant 't': hub.json sets '{field}'"):
            RepositoryHub(tmp_path)


class TestDecodeAfterAdmission:
    """The hub parses a payload only once auth admits it: a denied peer
    costs no decode and learns nothing of its bytes."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        import repro.hub.hub as hub_module

        calls = []
        real = hub_module.decode_message

        def counting(payload):
            calls.append(payload)
            return real(payload)

        monkeypatch.setattr(hub_module, "decode_message", counting)
        return calls

    def error_type(self, response):
        return decode_message(response)[0]["error"]["type"]

    def test_an_auth_denial_decodes_nothing(self, decodes):
        hub = RepositoryHub()
        hub.add_tenant("ana", tokens=["tok"])
        request = encode_message({"op": "manifest"})
        response = hub.handle_request("ana", "proj", "wrong", request)
        assert self.error_type(response) == "AuthenticationError"
        assert decodes == []

    def test_undecodable_bytes_from_an_unauthenticated_peer_get_the_auth_error(
        self, decodes
    ):
        hub = RepositoryHub()
        hub.add_tenant("ana", tokens=["tok"])
        response = hub.handle_request("ana", "proj", None, b"\x00garbage")
        assert self.error_type(response) == "AuthenticationError"
        assert decodes == []

    @pytest.mark.parametrize(
        "tenant, repo, token, denial",
        [
            ("ana", "proj", "tok-ana-old", "AuthenticationError"),
            ("ana", "proj", None, "AuthenticationError"),
            ("ben", "proj", "tok-ana", "AuthorizationError"),
            ("nobody", "proj", "tok-ana", "AuthorizationError"),
            ("bad name!", "proj", "tok-ana", "HubError"),
            ("ana", "bad name!", "tok-ana", "HubError"),
        ],
        ids=[
            "wrong-token", "no-token", "other-tenant", "unknown-tenant",
            "bad-tenant-name", "bad-repo-name",
        ],
    )
    def test_every_pre_admission_denial_answers_garbage_unread(
        self, decodes, hub, tenant, repo, token, denial
    ):
        # The peer's bytes would not even decode; the denial it gets is
        # the admission's, and nothing looked at them.
        response = hub.handle_request(tenant, repo, token, b"\x00garbage")
        assert self.error_type(response) == denial
        assert decodes == []

    @pytest.mark.parametrize(
        "op, hosted",
        [("manifest", False), ("manifest", True), ("stats", True)],
        ids=["preflight-unhosted", "preflight-hosted", "read-hosted"],
    )
    def test_an_admitted_request_is_decoded_once(
        self, decodes, hub, monkeypatch, op, hosted
    ):
        # The hub hands its decode to the server, hosted or ephemeral:
        # no second parse.
        import repro.remote.server as server_module

        if hosted:
            hub.create_repo("ana", "proj")

        def refuse(payload):
            raise AssertionError("the server decoded a hub-decoded request")

        monkeypatch.setattr(server_module, "decode_message", refuse)
        request = encode_message({"op": op})
        response = hub.handle_request("ana", "proj", "tok-ana", request)
        assert "error" not in decode_message(response)[0]
        assert decodes == [request]


class TestLifecycle:
    def test_eviction_persists_and_reload_serves(self, tmp_path, workload):
        hub = RepositoryHub(tmp_path / "hub", max_loaded_repos=1)
        hub.add_tenant("ana", tokens=["a"])
        hub.add_tenant("ben", tokens=["b"])
        local = build_local_repo(workload)
        push_to(hub, local, workload, "ana", "proj", "a")
        push_to(hub, local, workload, "ben", "proj", "b")  # evicts ana's
        assert hub.evictions >= 1
        assert hub.loaded_repos() == [("ben", "proj")]
        repo_dir = tmp_path / "hub" / "tenants" / "ana" / "proj"
        assert (repo_dir / "state.json").is_file()
        assert (repo_dir / "chunks.0.jsonl").is_file()
        # usage survives eviction
        assert hub.tenant_usage("ana") == hub.tenant_usage("ben") > 0
        # reloading serves the same history (and evicts ben's in turn)
        clone = clone_repository(hub.local_transport("ana", "proj", "a"))
        assert len(clone.graph) == 2
        assert hub.loads >= 1

    def test_repo_dir_holds_no_chunk_bytes(self, tmp_path, workload):
        hub = RepositoryHub(tmp_path / "hub")
        hub.add_tenant("ana", tokens=["a"])
        push_to(hub, build_local_repo(workload), workload, "ana", "proj", "a")
        # force persistence of the loaded repo
        hub._persist_hosted(hub._loaded[("ana", "proj")])
        repo_dir = tmp_path / "hub" / "tenants" / "ana" / "proj"
        names = {p.name for p in repo_dir.iterdir()}
        assert names == {
            "state.json", "commits.0.jsonl", "recipes.0.jsonl",
            "checkpoints.0.jsonl", "chunks.0.jsonl", "lineage.0.jsonl",
        }
        with open(repo_dir / "chunks.0.jsonl") as fh:
            holdings = [json.loads(line) for line in fh]
        assert holdings and all(
            isinstance(d, str) and isinstance(s, int) for d, s in holdings
        )

    def test_restart_rebuilds_refcounts_usage_and_tenants(
        self, tmp_path, workload
    ):
        root = tmp_path / "hub"
        hub = RepositoryHub(root)
        hub.add_tenant("ana", tokens=["a"], quota_bytes=10**9)
        hub.add_tenant("ben", tokens=["b"])
        local = build_local_repo(workload)
        push_to(hub, local, workload, "ana", "proj", "a")
        push_to(hub, local, workload, "ben", "proj", "b")
        snapshot = hub.stats()

        restarted = RepositoryHub(root)
        stats = restarted.stats()
        assert stats["physical_bytes"] == snapshot["physical_bytes"]
        assert stats["tenant_usage"] == snapshot["tenant_usage"]
        assert restarted.list_repos("ana") == ["proj"]
        # quota survives the restart too
        assert restarted.authenticator.tenant("ana").quota_bytes == 10**9
        clone = clone_repository(restarted.local_transport("ben", "proj", "b"))
        assert len(clone.graph) == 2

    def test_push_to_reloaded_repo_continues_history(self, tmp_path, workload):
        root = tmp_path / "hub"
        hub = RepositoryHub(root)
        hub.add_tenant("ana", tokens=["a"])
        local = build_local_repo(workload)
        push_to(hub, local, workload, "ana", "proj", "a")

        restarted = RepositoryHub(root)
        local.commit(
            workload.name,
            {"model": workload.model_version(5)},
            message="after restart",
        )
        remote = local.add_remote(
            "again", restarted.local_transport("ana", "proj", "a")
        )
        result = remote.push(workload.name)
        assert result.commits_sent == 1  # incremental, not a re-upload
        clone = clone_repository(restarted.local_transport("ana", "proj", "a"))
        assert len(clone.graph) == 3

    def test_create_repo_conflicts_and_unknown_tenant(self, tmp_path):
        hub = RepositoryHub(tmp_path / "hub")
        hub.add_tenant("ana", tokens=["a"])
        hub.create_repo("ana", "proj")
        with pytest.raises(HubError):
            hub.create_repo("ana", "proj")
        with pytest.raises(HubError):
            hub.create_repo("ghost", "proj")

    def test_denied_creating_push_leaves_no_phantom_repo(self, hub, workload):
        """An auth/quota-denied push to a new name must not register (or
        later persist) an empty repo that would shadow not-found."""
        hub.add_tenant("tiny", tokens=["tok-tiny"], quota_bytes=16)
        local = build_local_repo(workload)
        with pytest.raises(QuotaExceededError):
            push_to(hub, local, workload, "tiny", "newrepo", "tok-tiny")
        assert hub.loaded_repos() == []
        assert hub.list_repos("tiny") == []
        # the name is still free for an explicit create
        hub.create_repo("tiny", "newrepo")
        assert hub.list_repos("tiny") == ["newrepo"]

    def test_successful_creating_push_is_kept(self, hub, workload):
        local = build_local_repo(workload)
        push_to(hub, local, workload, "ana", "kept", "tok-ana")
        assert ("ana", "kept") in hub.loaded_repos()

    def test_memory_hub_never_evicts(self, hub, workload):
        hub.max_loaded_repos = 1
        local = build_local_repo(workload)
        push_to(hub, local, workload, "ana", "one", "tok-ana")
        push_to(hub, local, workload, "ana", "two", "tok-ana")
        assert hub.evictions == 0
        assert len(hub.loaded_repos()) == 2
