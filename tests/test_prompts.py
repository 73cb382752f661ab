"""Tests for prompt template loading and construction."""

from __future__ import annotations

import builtins
import hashlib
from pathlib import Path

import pytest
from selfverify.core import (
    ExtractedItem,
    ExtractionSet,
    StatusLabel,
    TASKS,
    clinical_trial_arm_task,
    icd_task,
    medication_status_task,
)
from selfverify.prompts import (
    CATALOG_ROOT,
    DEFAULT_DEMONSTRATIONS,
    DemoExample,
    FAMILY_STEPS,
    build_evidence_prompt,
    build_icd_map_prompt,
    build_megaprompt,
    build_omission_prompt,
    build_original_prompt,
    build_prune_prompt,
    catalog_version,
    family_template,
    render_answer,
    render_demonstrations,
    sample_demonstrations,
    shared_template,
)

DOC = "Patient was started on aspirin. Metformin was discontinued last week."


class TestCatalog:
    def test_version_present(self):
        assert catalog_version() == "1"

    def test_default_demo_count(self):
        assert DEFAULT_DEMONSTRATIONS == 5

    def test_every_family_has_every_step(self):
        for task in TASKS.values():
            for step in FAMILY_STEPS:
                assert family_template(task.family, step) is not None

    def test_unknown_step_rejected(self):
        with pytest.raises(ValueError):
            family_template(medication_status_task().family, "bogus")
        with pytest.raises(ValueError):
            shared_template("bogus")

    def test_all_prompts_fully_substituted(self):
        items = ExtractionSet((ExtractedItem.from_raw("aspirin"),))
        for task in TASKS.values():
            built = [
                build_original_prompt(task, DOC),
                build_omission_prompt(task, DOC, items),
                build_evidence_prompt(task, DOC, items),
                build_prune_prompt(task, DOC, "aspirin", quote="on aspirin"),
                build_prune_prompt(task, DOC, "aspirin"),
                build_megaprompt(task, DOC),
            ]
            if task.icd_version:
                built.append(build_icd_map_prompt(task, items))
            for prompt in built:
                assert "${" not in prompt
                assert "$ {" not in prompt


def every_prompt() -> list[str]:
    items = ExtractionSet((ExtractedItem.from_raw("aspirin"),))
    built = []
    for task in TASKS.values():
        built += [
            build_original_prompt(task, DOC),
            build_omission_prompt(task, DOC, items),
            build_evidence_prompt(task, DOC, items),
            build_prune_prompt(task, DOC, "aspirin", quote="on aspirin"),
            build_prune_prompt(task, DOC, "aspirin"),
            build_megaprompt(task, DOC),
        ]
        if task.icd_version:
            built.append(build_icd_map_prompt(task, items))
    return built


class TestTemplatesLoadOnce:
    def test_rebuilding_reads_no_file(self, monkeypatch):
        first = every_prompt()

        def refuse(*args, **kwargs):
            raise AssertionError("a prompt build touched the catalog on disk")

        with monkeypatch.context() as m:
            m.setattr(Path, "exists", refuse)
            m.setattr(Path, "read_text", refuse)
            m.setattr(builtins, "open", refuse)
            again = every_prompt()
        assert again == first


# Text that a format string or a Template would read as syntax if it parsed
# a value; the builders must insert it verbatim.
_HOSTILE = "a $ b ${x} {c} {0} }{ %s $$ {{d}}"


class _Values(dict):
    """A hostile value for any placeholder name."""

    def __missing__(self, name: str) -> str:
        return f"<{name}: {_HOSTILE}>"


_VALUES = _Values()


class TestPinnedCatalog:
    """Each catalog template renders to the bytes it rendered to when written in string.Template syntax."""

    DIGESTS = {
        "clinical_trial_arm/evidence.txt": "9533487bdc47a3240bdc862aa6705273cab6ea8dd39c5f91c7df6b545c2fdd3d",
        "clinical_trial_arm/omission.txt": "1f44e77c4fc487dcd987e59ec1ab6932ee476a4b3b293ccfa670593ca1cfb818",
        "clinical_trial_arm/original.txt": "e37e15714933a940dcaa63836201b2e8e2f4688883ba2efcba3cad59eb525767",
        "clinical_trial_arm/prune.txt": "8019cd405ed8df844d05ad00b65f1c30d4f1c0168101cb0fbd279b8dae1ca248",
        "clinical_trial_arm/prune_no_evidence.txt": "95424ba5b4917de20fbbda9e827a8de479d7b76b468ad54e4102eaae14957eca",
        "icd_code/evidence.txt": "2c20fb81774fbde15f9916ef84bee9842b7444ab6466cfd7548b301ce4890a06",
        "icd_code/icd_map.txt": "f75d3a14bb54a6604076524c73004566fc178aa2c8de53bbd83c550a11521d63",
        "icd_code/omission.txt": "93c0e079fc59a963974e33c39d2e961d820cf5100507c1f5b755e46c4b2769cb",
        "icd_code/original.txt": "49ae9a2a77c22852dc4c0a81d99a29b671726d32a3ea05ba12b2b2d7b89a68a4",
        "icd_code/prune.txt": "814c5cd1992cfc65c6c57187e5d94fc4a2210734523ba4fd99d34f2684717132",
        "icd_code/prune_no_evidence.txt": "71c268849b5afd62a7a2374ca3b23c6c91315c91e0161648108c071a60db79d6",
        "medication_status/evidence.txt": "fc279ca035ed38bbbcf4927edaa05c17fb0b913c0380b5224ce21e3d8edd6c9c",
        "medication_status/omission.txt": "762dc61cb3a4d25bd11429be48f6ed9f002ac04a89b3101f465363de64be25e0",
        "medication_status/original.txt": "49a3225c2dc2f20b2664a278b1736a0b6c8e4200a6b970e56cb02d986c6a2be5",
        "medication_status/prune.txt": "3016a1483ece065643320416d58ca0295aed973b1542a7e9baa75b2446546cd9",
        "medication_status/prune_no_evidence.txt": "fbb78bc13d31b27fa6940754d48bbce0a4a512079caa795239d4ff087b42700b",
        "shared/megaprompt_postscript.txt": "df96964e51bf70ed3e8fd98246cf0d31191ece61d7f59580223a2507306a5704",
    }

    def test_every_catalog_template(self):
        names = sorted(path.relative_to(CATALOG_ROOT).as_posix() for path in CATALOG_ROOT.glob("*/*.txt"))
        assert names == sorted(self.DIGESTS)
        for name in names:
            rendered = (CATALOG_ROOT / name).read_text(encoding="utf-8").format_map(_VALUES)
            assert _HOSTILE in rendered
            assert hashlib.sha256(rendered.encode("utf-8")).hexdigest() == self.DIGESTS[name], name

    def test_builders_insert_values_verbatim(self):
        task = medication_status_task()
        text = (CATALOG_ROOT / task.family.value / "prune.txt").read_text(encoding="utf-8")
        values = {"document": f"doc {_HOSTILE}", "item": f"item {_HOSTILE}", "quote": f"quote {_HOSTILE}"}
        built = build_prune_prompt(task, values["document"], values["item"], quote=values["quote"])
        assert built == text.format_map(values)
        assert all(value in built for value in values.values())


class TestRendering:
    def test_render_answer_plain(self):
        task = clinical_trial_arm_task()
        out = render_answer(task, [("placebo", None), ("high dose", None)])
        assert out == "- placebo\n- high dose"

    def test_render_answer_with_status(self):
        task = medication_status_task()
        out = render_answer(task, [("aspirin", StatusLabel.ACTIVE), ("statin", None)])
        assert out == "- aspirin: Active\n- statin: Neither"

    def test_render_answer_empty(self):
        assert render_answer(clinical_trial_arm_task(), []) == "None"

    def test_render_demonstrations_empty(self):
        assert render_demonstrations([]) == ""

    def test_render_demonstrations_blocks(self):
        out = render_demonstrations(
            [DemoExample("text one", "- a"), DemoExample("text two", "- b")]
        )
        assert "text one" in out and "text two" in out
        assert out.endswith("\n\n")


class TestSampleDemonstrations:
    def test_deterministic(self):
        pool = [DemoExample(f"t{i}", f"- a{i}") for i in range(20)]
        assert sample_demonstrations(pool, 5, seed=3) == sample_demonstrations(pool, 5, seed=3)

    def test_seed_changes_sample(self):
        pool = [DemoExample(f"t{i}", f"- a{i}") for i in range(20)]
        assert sample_demonstrations(pool, 5, seed=1) != sample_demonstrations(pool, 5, seed=2)

    def test_k_zero(self):
        assert sample_demonstrations([DemoExample("t", "a")], 0, seed=1) == []

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            sample_demonstrations([DemoExample("t", "a")], 2, seed=1)

    def test_negative_k(self):
        with pytest.raises(ValueError):
            sample_demonstrations([], -1, seed=1)


class TestBuildPrompts:
    def test_original_embeds_document(self):
        prompt = build_original_prompt(medication_status_task(), DOC)
        assert DOC in prompt
        assert "Here are some examples." not in prompt

    def test_original_with_demonstrations(self):
        demos = [DemoExample("demo text", "- demo med: Active")]
        prompt = build_original_prompt(medication_status_task(), DOC, demos)
        assert "Here are some examples." in prompt
        assert "demo text" in prompt
        assert prompt.index("demo text") < prompt.index(DOC)

    def test_omission_lists_current_items(self):
        items = ExtractionSet(
            (
                ExtractedItem.from_raw("aspirin", status=StatusLabel.ACTIVE),
                ExtractedItem.from_raw("metformin", status=StatusLabel.DISCONTINUED),
            )
        )
        prompt = build_omission_prompt(medication_status_task(), DOC, items)
        assert "- aspirin: Active" in prompt
        assert "- metformin: Discontinued" in prompt
        assert DOC in prompt

    def test_omission_with_empty_set(self):
        prompt = build_omission_prompt(clinical_trial_arm_task(), DOC, ExtractionSet.empty())
        assert "(none)" in prompt

    def test_evidence_asks_for_quotes(self):
        items = ExtractionSet((ExtractedItem.from_raw("aspirin"),))
        prompt = build_evidence_prompt(medication_status_task(), DOC, items)
        assert "- aspirin" in prompt
        assert "quote" in prompt.lower()

    def test_prune_with_quote_embeds_both(self):
        prompt = build_prune_prompt(medication_status_task(), DOC, "aspirin", quote="on aspirin")
        assert "aspirin" in prompt
        assert '"on aspirin"' in prompt
        assert "Yes or No" in prompt

    def test_prune_without_quote_uses_evidence_free_wording(self):
        prompt = build_prune_prompt(medication_status_task(), DOC, "aspirin")
        assert "quote" not in prompt.lower()
        assert "Yes or No" in prompt

    def test_icd_map_embeds_version(self):
        for version in (9, 10):
            prompt = build_icd_map_prompt(icd_task(version), ["copd exacerbation"])
            assert f"ICD-{version}" in prompt
            assert "- copd exacerbation" in prompt

    def test_icd_map_rejects_other_tasks(self):
        with pytest.raises(ValueError):
            build_icd_map_prompt(medication_status_task(), ["x"])

    def test_document_with_template_chars_is_safe(self):
        tricky = "Cost was ${high} and $variable amounts of 5{units}."
        prompt = build_original_prompt(medication_status_task(), tricky)
        assert tricky in prompt


class TestMegaprompt:
    def test_embeds_original_as_prefix(self):
        task = medication_status_task()
        original = build_original_prompt(task, DOC)
        mega = build_megaprompt(task, DOC)
        assert mega.startswith(original)
        assert len(mega) > len(original)

    def test_numbered_verification_passes(self):
        for task in TASKS.values():
            mega = build_megaprompt(task, DOC)
            for marker in ("(1)", "(2)", "(3)"):
                assert marker in mega
            assert task.item_noun in mega
            assert "quote" in mega
            assert "remove" in mega

    def test_demonstrations_flow_through(self):
        demos = [DemoExample("d text", "- arm a")]
        mega = build_megaprompt(clinical_trial_arm_task(), DOC, demos)
        assert "d text" in mega
