# bce.awk joins the compiler's bounds-check report with the kernels of a
# generated file (`make gen-bce`):
#
#	go build -gcflags=-d=ssa/check_bce/debug=1 ./PKG/ 2>&1 | awk -v pins=float64=46,float32=33,int64=0 -f bce.awk PKG/kernels_gen.go -
#
# Pass 1, the generated source: which kernel each line belongs to, its body
# kind, and the lines of its inner loops (`for i := 0; i < n; i++`, a phase
# loop's `for m := 0; m < cnt; m++`, a lane loop's `for ; i+4 <= n; i += 4`
# and its remainder's `for ; i < n; i++`). Pass 2, the report: the
# IsInBounds checks that survived, per kernel, and how many of them sit in
# an inner loop; then the inner-loop total per body kind, and a failing exit
# status when a total rises above its pin. The IsSliceInBounds checks in
# the inner loops (a lane loop's window cuts) are printed beside them, for
# information only.
FNR == NR {
	if ($0 ~ /^\/\/ k_[0-9a-f]+ computes .*\((float32|float64|int64) body[,)]/) {
		kind = $0
		sub(/ body[,)].*/, "", kind)
		sub(/.*\(/, "", kind)
		body[$2] = kind
	}
	if ($0 ~ /^func k_/) {
		cur = substr($2, 1, index($2, "(") - 1)
		order[++nk] = cur
	}
	if ($0 ~ /^}/) cur = ""
	if (match($0, /^\t+for (i := 0; i < n; i\+\+|m := 0; m < cnt; m\+\+|; i\+[0-9]+ <= n; i \+= [0-9]+|; i < n; i\+\+) \{$/)) {
		depth = match($0, /[^\t]/) - 1
		inner = 1
		next
	}
	if (inner && match($0, /^\t+}$/) && RLENGTH - 1 == depth) inner = 0
	fn[FNR] = cur
	in_loop[FNR] = inner
	next
}
/Found IsInBounds/ {
	split($1, pos, ":")
	k = fn[pos[2]]
	if (k == "") next
	total[k]++
	if (in_loop[pos[2]]) loop[k]++
}
/Found IsSliceInBounds/ {
	split($1, pos, ":")
	k = fn[pos[2]]
	if (k != "" && in_loop[pos[2]]) sloop[k]++
}
END {
	for (i = 1; i <= nk; i++) {
		k = order[i]
		printf "  %s %-7s IsInBounds %3d, in the inner loop %d (IsSliceInBounds there %d)\n", k, body[k], total[k], loop[k], sloop[k]
		sum[body[k]] += loop[k]
		cnt[body[k]]++
	}
	np = split(pins, ps, ",")
	for (i = 1; i <= np; i++) {
		split(ps[i], kv, "=")
		pin[kv[1]] = kv[2]
	}
	for (b in cnt) {
		printf "  %s bodies: %d kernels, %d inner-loop bounds checks\n", b, cnt[b], sum[b]
		if ((b in pin) && sum[b] > pin[b]) {
			printf "  FAIL: %s bodies keep %d inner-loop bounds checks, above the pin %d\n", b, sum[b], pin[b]
			bad = 1
		}
	}
	exit bad
}
