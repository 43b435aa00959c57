# Sourced by every check test.
#
# `twice CMD ARG...` runs CMD twice, each run in its own process and its
# own fresh directory. The two runs must print the same bytes (stdout and
# stderr), exit with the same status and write the same files; a line
# starting `twice:` (or diff's own report) says where they parted. It then
# moves the first run's files into the current directory, for the checks
# that follow, prints the first run's output and returns its exit status,
# so cram shows a non-zero one.
twice () {
  cmd=$1
  shift
  case $cmd in /*) ;; *) cmd=$PWD/$cmd ;; esac
  rm -rf run.1 run.2
  mkdir run.1 run.2
  (cd run.1 && "$cmd" "$@" > ../out.1 2>&1 < /dev/null)
  status=$?
  (cd run.2 && "$cmd" "$@" > ../out.2 2>&1 < /dev/null)
  status2=$?
  cmp -s out.1 out.2 || echo "twice: the two runs printed different output"
  test "$status" = "$status2" || echo "twice: exit $status, then $status2"
  diff -rq run.1 run.2 | sed 's/^/twice: /'
  for f in run.1/* ; do test -e "$f" && mv "$f" . ; done
  rm -rf run.1 run.2 out.2
  cat out.1
  rm out.1
  return "$status"
}
