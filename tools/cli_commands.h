#ifndef SITFACT_TOOLS_CLI_COMMANDS_H_
#define SITFACT_TOOLS_CLI_COMMANDS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace sitfact {
namespace cli {

/// Parsed command line: subcommand + `--flag value` pairs. Flags are
/// single-valued; repeated flags keep the last value.
struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& name) const { return flags.count(name) > 0; }
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
  int GetInt(const std::string& name, int fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
};

/// Parses argv[1..]. On malformed input returns InvalidArgument describing
/// the problem; the parser itself never prints — callers decide how to
/// render the error (cli_main.cc routes it through PrintUsage).
Status ParseArgs(int argc, char** argv, Args* out);

/// Checks that every flag in `args` is one its command reads; an unknown
/// flag is InvalidArgument naming the flag and the command, so a misspelt
/// flag fails instead of silently changing the answer. Commands the CLI
/// does not know pass (dispatch reports them).
Status CheckFlags(const Args& args);

/// `sitfact_cli generate`: writes a synthetic dataset as CSV.
int RunGenerate(const Args& args);

/// `sitfact_cli discover`: streams a CSV through a discovery algorithm and
/// prints prominent facts as they emerge.
int RunDiscover(const Args& args);

/// `sitfact_cli query`: one-shot contextual skyline query over a CSV.
int RunQuery(const Args& args);

/// `sitfact_cli facts`: serve discovered facts through FactService — top-k
/// by prominence with filters and cursor pagination, a --watch mode that
/// queries live while FactFeed ingests, and a --dir mode that recovers a
/// durable store and serves immediately.
int RunFacts(const Args& args);

/// `sitfact_cli serve`: ingest a CSV, then answer HTTP queries over the
/// unified query API (epoll front end, src/net/) until stopped.
int RunServe(const Args& args);

/// `sitfact_cli resume`: restores an engine snapshot and optionally
/// continues streaming another CSV into it.
int RunResume(const Args& args);

/// `sitfact_cli checkpoint`: streams a CSV into a durable store (WAL +
/// snapshots under --dir), checkpointing per --every and at the end unless
/// --no-final. Without --csv it forces a checkpoint of an existing store's
/// WAL tail.
int RunCheckpoint(const Args& args);

/// `sitfact_cli restore`: recovers a durable store (newest valid snapshot +
/// WAL replay) and optionally continues streaming another CSV into it.
int RunRestore(const Args& args);

/// `sitfact_cli wal-dump`: prints the records of one WAL file (--wal) or of
/// every WAL segment in a durable store (--dir), including torn-tail notes.
int RunWalDump(const Args& args);

/// Prints per-command usage; returns exit code 2 for consistency.
int PrintUsage(const std::string& error);

}  // namespace cli
}  // namespace sitfact

#endif  // SITFACT_TOOLS_CLI_COMMANDS_H_
