// Entry point for sitfact_cli. Subcommand dispatch only; the work lives in
// cli_commands.cc so the pieces stay unit-testable.

#include <string>

#include "cli_commands.h"

int main(int argc, char** argv) {
  sitfact::cli::Args args;
  sitfact::Status parsed = sitfact::cli::ParseArgs(argc, argv, &args);
  if (!parsed.ok()) {
    return sitfact::cli::PrintUsage(parsed.message());
  }
  sitfact::Status known = sitfact::cli::CheckFlags(args);
  if (!known.ok()) return sitfact::cli::PrintUsage(known.message());
  if (args.command == "generate") return sitfact::cli::RunGenerate(args);
  if (args.command == "discover") return sitfact::cli::RunDiscover(args);
  if (args.command == "query") return sitfact::cli::RunQuery(args);
  if (args.command == "facts") return sitfact::cli::RunFacts(args);
  if (args.command == "serve") return sitfact::cli::RunServe(args);
  if (args.command == "resume") return sitfact::cli::RunResume(args);
  if (args.command == "checkpoint") return sitfact::cli::RunCheckpoint(args);
  if (args.command == "restore") return sitfact::cli::RunRestore(args);
  if (args.command == "wal-dump") return sitfact::cli::RunWalDump(args);
  if (args.command == "help" || args.command == "--help") {
    return sitfact::cli::PrintUsage("");
  }
  return sitfact::cli::PrintUsage("unknown command: " + args.command);
}
