#!/usr/bin/env bash
# API-convention lint (wired into ctest as `check_api`).
#
# Cross-module service methods must report failure through bf::Status /
# bf::Result<T> (one ErrorCode vocabulary, docs/RESILIENCE.md), never
# through a raw bool — a bool can't carry *why* and silently flattens
# retryable vs terminal failures. Bool is fine for predicates, so any
# method matching a predicate-naming pattern (is_*/has_*/should_*/can_*)
# is allowed, plus a grandfathered allowlist of established predicate
# names that don't carry a prefix.
#
# Exit 0 = clean; exit 1 = a new bool-returning non-predicate method
# declaration appeared in a src/ header. Either rename it as a predicate
# (is_.../has_...) or return Status.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

# Predicate-style names allowed to return bool.
allow_prefixes='is_|has_|should_|can_'
allow_names='ok|empty|closed|valid|cold|functional|complete|terminal|enabled|armed|triggered|at_end|push|try_push|push_batch|apply|wait_safe|accepting|dirty|operator|compatible_accelerator|compatible_hardware|redistributable_locked'

status=0
while IFS=: read -r file line decl; do
  # Extract the method name from "... bool name(".
  name="$(printf '%s' "$decl" | sed -E 's/.*\bbool[[:space:]]+([A-Za-z_][A-Za-z0-9_]*)\(.*/\1/')"
  if printf '%s' "$name" | grep -qE "^(${allow_prefixes})"; then
    continue
  fi
  if printf '%s' "$name" | grep -qE "^(${allow_names})$"; then
    continue
  fi
  echo "check_api: $file:$line: method '$name' returns raw bool —" \
       "return bf::Status (or rename it as a predicate: is_$name)" >&2
  status=1
done < <(grep -rnE '\bbool[[:space:]]+[a-z_][A-Za-z0-9_]*\(' \
           "$repo/src" --include='*.h' || true)

if [ "$status" -eq 0 ]; then
  echo "check_api: all bool-returning methods in src/ headers are predicates."
fi

# Assignment-map encapsulation: the registry's instance->device map and its
# inverse index (instance_device_ / device_instances_) may only be mutated
# by bind_instance_locked / unbind_instance_locked, fenced by the
# "BEGIN/END instance_device_ accessors" markers in registry.cpp. A mutation
# anywhere else can update one side without the other, and the churn
# harness's I4 invariant (map <-> index agreement) only holds because every
# writer goes through the pair.
registry_cpp="$repo/src/registry/registry.cpp"
begin_line="$(grep -n 'BEGIN instance_device_ accessors' "$registry_cpp" | cut -d: -f1 | head -1)"
end_line="$(grep -n 'END instance_device_ accessors' "$registry_cpp" | cut -d: -f1 | head -1)"
if [ -z "$begin_line" ] || [ -z "$end_line" ]; then
  echo "check_api: accessor markers missing from src/registry/registry.cpp" >&2
  status=1
fi

mutation_re='(instance_device_|device_instances_)[[:space:]]*(\[|\.[[:space:]]*(erase|insert|emplace|clear|swap)\b|=[^=])'
while IFS=: read -r file line text; do
  if [ "$file" = "$registry_cpp" ] && [ -n "$begin_line" ] && [ -n "$end_line" ] \
     && [ "$line" -gt "$begin_line" ] && [ "$line" -lt "$end_line" ]; then
    continue
  fi
  echo "check_api: $file:$line: direct mutation of the assignment map/index —" \
       "go through bind_instance_locked / unbind_instance_locked" >&2
  status=1
done < <(grep -rnE "$mutation_re" "$repo/src" --include='*.cpp' --include='*.h' || true)

if [ "$status" -eq 0 ]; then
  echo "check_api: assignment map mutations are confined to the accessor block."
fi

# Scheduler encapsulation: only the Device Manager constructs or pops the
# scheduler. Everything else sets max_batch through SchedulerConfig and
# lets the manager own the queue — a second popper would break the
# single-consumer contract (docs/SCHEDULING.md), and a directly constructed
# scheduler would bypass the manager's close/cancel lifecycle.
scheduler_re='\b(Scheduler|pop_next_safe)\b'
while IFS=: read -r file line text; do
  case "$file" in
    "$repo/src/devmgr/"*) continue ;;
  esac
  echo "check_api: $file:$line: scheduler construction/pop outside" \
       "src/devmgr/ — configure it via SchedulerConfig instead" >&2
  status=1
done < <(grep -rnE "$scheduler_re" "$repo/src" \
           --include='*.cpp' --include='*.h' || true)

if [ "$status" -eq 0 ]; then
  echo "check_api: scheduler construction/pops are confined to src/devmgr/."
fi

# Hot-path memory discipline (docs/PERFORMANCE.md): payload bytes on the
# per-request data plane live in bf::Bytes — small-buffer-optimized and
# recyclable through bf::arena's size-class free lists — never in raw byte
# containers or raw heap blocks. A std::vector<std::byte> (or malloc'd
# block) can't be handed back to the arena, so every frame/op that touches
# it pays a fresh allocation; the hotpath_test zero-alloc assertions only
# hold because nothing on the path spells its own buffer. Only
# common/bytes.h and common/arena.h may.
hot_alloc_re='std::vector<[[:space:]]*(std::byte|char|unsigned char|std::uint8_t|uint8_t)[[:space:]]*>|new[[:space:]]+(std::byte|char|unsigned[[:space:]]+char)[[:space:]]*\[|\b(malloc|calloc|realloc)[[:space:]]*\('
while IFS=: read -r file line text; do
  case "$file" in
    "$repo/src/common/bytes.h"|"$repo/src/common/arena.h") continue ;;
  esac
  echo "check_api: $file:$line: raw byte-buffer allocation on a data-plane" \
       "module — stage payloads in bf::Bytes via bf::arena::acquire" >&2
  status=1
done < <(grep -rnE "$hot_alloc_re" "$repo/src" \
           --include='*.cpp' --include='*.h' || true)

if [ "$status" -eq 0 ]; then
  echo "check_api: payload buffers are bf::Bytes everywhere in src/."
fi

exit "$status"
