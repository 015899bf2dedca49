#!/usr/bin/env bash
# Fails when a -run or -fuzz pattern in a workflow selects no test in the
# packages its `go test` command names. `go test -run X` passes when X
# matches nothing, so a renamed or deleted test would otherwise drop out of
# CI silently. Each |-separated alternative of a pattern must select at
# least one test, benchmark, fuzz target or example (`go test -list`);
# '^$' (run nothing) is skipped.
#
# Usage: bash .github/check-test-selections.sh [workflow.yml]
set -euo pipefail

workflow=${1:-.github/workflows/ci.yml}
failed=0

# Join backslash-continued lines, then keep each `go test` command.
while IFS= read -r cmd; do
	read -ra words <<<"$cmd"
	pkgs=()
	patterns=()
	for ((i = 0; i < ${#words[@]}; i++)); do
		w=${words[i]}
		case $w in
		-run | -fuzz) patterns+=("${words[i + 1]}"); i=$((i + 1)) ;;
		-run=* | -fuzz=*) patterns+=("${w#*=}") ;;
		. | ./*) pkgs+=("$w") ;;
		esac
	done
	for pat in "${patterns[@]}"; do
		pat=${pat//\'/}
		pat=${pat//\"/}
		[[ $pat == '^$' ]] && continue
		if [[ $pat == *'('* ]]; then
			alts=("$pat")
		else
			IFS='|' read -ra alts <<<"$pat"
		fi
		for alt in "${alts[@]}"; do
			if ! out=$(go test -list "$alt" "${pkgs[@]}" 2>&1) ||
				! grep -qE '^(Test|Benchmark|Fuzz|Example)' <<<"$out"; then
				echo "no test matches '$alt' in ${pkgs[*]}" >&2
				failed=1
			fi
		done
	done
done < <(sed -e ':a' -e '/\\$/N; s/\\\n//; ta' "$workflow" | grep -E '(^|[[:space:]])go test ')

exit "$failed"
